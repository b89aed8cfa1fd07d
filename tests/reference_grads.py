"""Reference passes of the adapter layer and the model, one expert at a time.

The forward loops over the visible experts with 2-d products, and the
backward passes compute every gradient: the adapter layer's for every
visible expert plus the input, and the model's through every layer down to
the input.  The engine stacks its per-expert products and computes only what
a learning step applies; tests compare it with these bit for bit."""

from __future__ import annotations

import numpy as np

from submoe.adapter import ForwardCache
from submoe.numerics import as_matrix, contrastive_loss


def blockwise_matmul(a, b, block: int):
    """`a @ b` one 2-d product per block of `block` rows, stacked in order:
    the definition `numerics.rowwise_matmul` is bit-equal to."""
    return np.vstack([a[s:s + block] @ b for s in range(0, a.shape[0], block)])


def loop_forward(layer, task: int, x, matmul=np.matmul):
    """(y, dist, cache) of the layer's forward, one expert at a time:
    y = x, then y += w_j * up_j @ down_j @ x for each visible expert j.  The
    cache's `down_acts` is the list of each expert's down activations."""
    xm = as_matrix(x)
    dist = layer.route(task, xm, matmul)
    n_vis = layer.router_for(task).n_visible
    down_acts = []
    y = xm.copy()
    for j in range(n_vis):
        e = layer.experts[j]
        a = matmul(xm, e.down.T)
        down_acts.append(a)
        y += dist.weights[:, j:j + 1] * matmul(a, e.up.T)
    cache = ForwardCache(x=xm, task=task, dist=dist, down_acts=down_acts,
                         n_visible=n_vis, version=layer.version, matmul=matmul)
    return y, dist, cache


def full_backward(layer, cache, grad_y):
    """(grad_x, expert_grads, router_grad) with (grad_down, grad_up) for
    every visible expert, frozen ones included.  Each expert's output is
    recomputed from its down activations with the cache's own per-expert
    product."""
    g = as_matrix(grad_y)
    router = layer.router_for(cache.task)
    w = cache.dist.weights
    x = cache.x

    grad_x = g.copy()
    expert_grads = []
    dmix = np.empty_like(w)
    for j in range(cache.n_visible):
        e = layer.experts[j]
        wg = g * w[:, j:j + 1]
        grad_up = wg.T @ cache.down_acts[j]
        grad_down = (wg @ e.up).T @ x
        expert_grads.append((grad_down, grad_up))
        grad_x += w[:, j:j + 1] * (g @ e.up @ e.down)
        u = cache.matmul(cache.down_acts[j], e.up.T)
        dmix[:, j] = (g * u).sum(axis=1)
    dz = w * (dmix - (w * dmix).sum(axis=1, keepdims=True))
    router_grad = dz.T @ x
    grad_x += dz @ router.weight
    return grad_x, expert_grads, router_grad


def full_loss_and_grads(model, x, labels, text_emb, task: int):
    """(loss, {layer index: (expert_grads, router_grad)}), backpropagating
    through every adapter and backbone layer down to the input."""
    emb, tape = model._forward(x, task, keep_tape=True)
    loss, g = contrastive_loss(emb, text_emb, labels, model.temperature)
    per_layer = {}
    for i in range(model.backbone.depth - 1, -1, -1):
        t, cache = tape[i]
        if cache is not None:
            g, expert_grads, router_grad = full_backward(model.adapters[i], cache, g)
            per_layer[i] = (expert_grads, router_grad)
        g = (g * (1.0 - t * t)) @ model.backbone.weights[i]
    return loss, per_layer
