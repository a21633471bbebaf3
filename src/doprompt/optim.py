"""AdamW with decoupled weight decay. The state holds moments only for the
parameters it is built from, the ones that train, and `step_params` clears
the grads it applies. Decay multiplies the already-updated value, where
`torch.optim.AdamW` decays before the moment step."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor

__all__ = ["AdamWState", "adamw_step", "init_adamw_state", "step_params"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamWState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self, m: dict, v: dict, t: int = 0):
        self.m = m
        self.v = v
        self.t = t


def init_adamw_state(params: dict) -> AdamWState:
    m = {name: np.zeros_like(p.data) for name, p in params.items()}
    v = {name: np.zeros_like(p.data) for name, p in params.items()}
    return AdamWState(m, v, t=0)


def adamw_step(
    params: dict,
    grads: dict,
    state: AdamWState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One update over `params` (name -> Tensor), in place, with the moment
    decays BETA1, BETA2 and the denominator offset EPS.

    The moments and `p.data` are updated in place, in the operation order of
    the out-of-place formula, so the results are bitwise equal to it.

    Weight decay is decoupled: p -= lr * wd * p, applied separately from the
    moment-based update. Missing grads are treated as zero; the parameter
    still decays. Only names present in `params` are touched.
    """
    state.t += 1
    t = state.t
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(
                f"adamw_step: grad shape {g.shape} != param shape {p.data.shape} for {name!r}"
            )
        m = state.m[name]
        v = state.v[name]
        if m.shape != p.data.shape:
            raise ShapeError(
                f"adamw_step: moment shape {m.shape} != param shape {p.data.shape} for {name!r}"
            )
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


def step_params(params: dict, state: AdamWState, trainable, lr, weight_decay):
    """Apply adamw_step to the subset of `params` named in `trainable`, then clear their grads."""
    subset = {name: params[name] for name in trainable}
    grads = {name: p.grad for name, p in subset.items() if p.grad is not None}
    adamw_step(subset, grads, state, lr=lr, weight_decay=weight_decay)
    for p in subset.values():
        p.grad = None
