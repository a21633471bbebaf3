"""AdamW with decoupled weight decay (arXiv 1711.05101). The state holds
moments only for the parameters that require grad, the ones that train, and
`step_params` clears the grads it applies. Decay multiplies the
already-updated value, where `torch.optim.AdamW` decays before the moment
step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError

__all__ = ["AdamWState", "init_adamw_state", "step_params"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamWState:
    """First/second moment estimates (name -> array) plus the shared step counter."""

    m: dict
    v: dict
    t: int = 0


def init_adamw_state(params: dict) -> AdamWState:
    """Zero moments for the parameters of `params` (name -> Tensor) that require grad."""
    trainable = {name: p for name, p in params.items() if p.requires_grad}
    return AdamWState(
        m={name: np.zeros_like(p.data) for name, p in trainable.items()},
        v={name: np.zeros_like(p.data) for name, p in trainable.items()},
    )


def step_params(params: dict, state: AdamWState, trainable, lr: float, weight_decay: float = 0.0) -> None:
    """One AdamW update of the parameters of `params` (name -> Tensor) named
    in `trainable`, from their `grad`s, with the moment decays BETA1, BETA2
    and the denominator offset EPS; then their grads are cleared.

    The moments and `p.data` are updated in place, in the operation order of
    the out-of-place formula, so the results are bitwise equal to it.

    Weight decay is decoupled: p -= lr * wd * p, applied separately from the
    moment-based update. A missing grad counts as zero; the parameter still
    decays.
    """
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for name in trainable:
        p = params[name]
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        if g.shape != p.data.shape:
            raise ShapeError(f"step_params: grad shape {g.shape} != param shape {p.data.shape} for {name!r}")
        m, v = state.m[name], state.v[name]
        if m.shape != p.data.shape:
            raise ShapeError(f"step_params: moment shape {m.shape} != param shape {p.data.shape} for {name!r}")
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS), then p -= lr * wd * p
        step = m / bc1
        step *= lr
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        p.data -= step
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        p.grad = None
