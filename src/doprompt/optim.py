"""AdamW with decoupled weight decay (arXiv 1711.05101). The state holds
moments only for the parameters that require grad, the ones that train, and
the step's gradient in their layout. Decay multiplies the already-updated
value, where `torch.optim.AdamW` decays before the moment step.

The update runs once over flat buffers, not once per parameter.
`init_adamw_state` copies the trainable parameters' arrays, in `params`
order, into one flat buffer, `state.data`, and rebinds each trainable
`p.data` to a reshaped view of it. The moments are the rows of one zeroed
(2, n) buffer, `state.moments`, and `state.m[name]` and `state.v[name]` are
views of its rows. The moments are a buffer of their own so that a model
does not keep them alive once its optimizer is gone. Frozen parameters keep
their own arrays. The step's gradient is row 0 of one more (2, n) buffer,
`state.grads`, which `write_grads` fills; `step_params` takes row 1 as its
scratch. `data` and `grads` are shared mappings, so a process forked from
the caller reads every update and writes a gradient row the caller reads.

Write a trainable parameter in place (`p.data[...] = arr`). `step_params`
raises `ValueError` for one whose `data` was rebound to another array,
since the update would miss it, and for a `trainable` other than the
state's names. `init_adamw_state` raises `ValueError` for trainable
parameters of mixed dtypes, which one buffer cannot hold."""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .tensor import ShapeError

__all__ = ["AdamWState", "init_adamw_state", "shared_array", "step_params", "write_grads"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamWState:
    """First/second moment estimates (name -> view of a `moments` row), the
    flat trainable parameters `data`, moments (m, v) and gradient rows `grads`,
    (name -> view) of each gradient row, and the shared step counter."""

    m: dict
    v: dict
    data: np.ndarray
    moments: np.ndarray
    grads: np.ndarray
    grad_views: tuple
    t: int = 0


def shared_array(shape, dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, which a process forked later
    shares; every view of it has it as its `base`."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype, buffer=mmap.mmap(-1, max(nbytes, 1)))  # a mapping takes at least one byte


def init_adamw_state(params: dict) -> AdamWState:
    """Zero moments and gradient rows for the parameters of `params` (name ->
    Tensor) that require grad, whose `data` become views of the state's buffer."""
    trainable = {name: p for name, p in params.items() if p.requires_grad}
    dtype = next((p.data.dtype for p in trainable.values()), np.float32)
    for name, p in trainable.items():
        if p.data.dtype != dtype:
            raise ValueError(
                f"init_adamw_state: {name!r} is {p.data.dtype} where the first trainable parameter is {dtype}"
            )
    n = sum(p.data.size for p in trainable.values())
    flat, grads = shared_array(n, dtype), shared_array((2, n), dtype)
    moments = np.zeros((2, n), dtype=dtype)
    m, v, g0, g1 = {}, {}, {}, {}
    start = 0
    for name, p in trainable.items():
        end = start + p.data.size
        data, m[name], v[name], g0[name], g1[name] = (
            row[start:end].reshape(p.data.shape) for row in (flat, *moments, *grads)
        )
        data[...] = p.data
        p.data = data
        start = end
    return AdamWState(m=m, v=v, data=flat, moments=moments, grads=grads, grad_views=(g0, g1))


def write_grads(state: AdamWState, row: int, params: dict, grads: dict) -> None:
    """Writes `grads` (Tensor -> array, as `tensor.backward` fills it) of the parameters
    of `params` (name -> Tensor) into row `row` of `state.grads`; a parameter the state
    holds and `grads` lacks gets 0. A shape other than the parameter's raises ShapeError."""
    for name, view in state.grad_views[row].items():
        g = grads.get(params[name])
        if g is not None and g.shape != view.shape:
            raise ShapeError(f"write_grads: grad shape {g.shape} != param shape {view.shape} for {name!r}")
        view[...] = 0 if g is None else g


def step_params(params: dict, state: AdamWState, trainable, lr: float, weight_decay: float = 0.0) -> None:
    """One AdamW update of the parameters of `params` (name -> Tensor) named
    in `trainable`, which must be the state's names in its order, from row 0
    of `state.grads`, with the moment decays BETA1, BETA2 and the denominator
    offset EPS. Both gradient rows are overwritten.

    The update runs in place on the whole buffers, in the operation order of
    the out-of-place formula, so every parameter and moment is bitwise equal
    to it. It allocates nothing the size of the buffers: row 1 is its scratch.

    Weight decay is decoupled: p -= lr * wd * p, applied separately from the
    moment-based update. A parameter with a zero gradient still decays.
    """
    if trainable is not state.m and list(trainable) != list(state.m):
        given, held = next(pair for pair in zip_longest(trainable, state.m) if pair[0] != pair[1])
        raise ValueError(f"step_params: trainable names {given!r} where the optimizer holds {held!r}")
    for name in trainable:
        if params[name].data.base is not state.data:
            raise ValueError(f"step_params: {name!r} is no longer a view of the optimizer's buffer; write it in place")
    (m, v), (g, work) = state.moments, state.grads
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
    np.multiply(1.0 - BETA1, g, out=work)
    m *= BETA1
    m += work
    np.multiply(g, g, out=work)
    work *= 1.0 - BETA2
    v *= BETA2
    v += work
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS), then p -= lr * wd * p
    step = np.divide(m, bc1, out=g)
    step *= lr
    denom = np.divide(v, bc2, out=work)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    state.data -= step
    if weight_decay:
        state.data -= np.multiply(state.data, lr * weight_decay, out=step)
