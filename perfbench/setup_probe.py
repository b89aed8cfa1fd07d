"""Set-up time in a fresh interpreter: import submoe, load the config and
generate its task stream.  Prints the seconds taken, then the calibration
kernel's time measured right after.

    python3 perfbench/setup_probe.py CONFIG
"""

import sys
from time import perf_counter

t0 = perf_counter()
import submoe  # noqa: E402

cfg = submoe.load_config(sys.argv[1])
submoe.generate_stream(cfg.stream, cfg.model.feature_dim, cfg.model.prototype_scale)
elapsed = perf_counter() - t0

from calibration import kernel_seconds  # noqa: E402

print(elapsed, kernel_seconds())
