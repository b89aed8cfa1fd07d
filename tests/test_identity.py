"""The table of pinned digests, `tools/identity.json`, without a run: every
kernel's table holds the entries `tools/identity.py` builds, and `compare`
names each kind of difference.  The pinned tests and
`python3 tools/identity.py check` compare the runs with it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from pinned import recorded

_spec = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parent.parent / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


@pytest.mark.parametrize("kernel", sorted(recorded()))
def test_every_kernel_table_holds_the_entries_the_tool_builds(kernel):
    assert sorted(recorded()[kernel]) == sorted(identity.entry_names())


def test_compare_names_each_kind_of_difference():
    want = {"a": {"same": "0", "gone": "1", "moved": "2"}, "b": {"f": "3"}}
    got = {"a": {"same": "0", "moved": "9", "added": "4"}, "c": {"f": "5"}}
    assert identity.compare(want, got) == [
        "a/added: new", "a/gone: missing", "a/moved: differs", "b/f: missing", "c/f: new"]
    assert identity.compare(want, want) == []
