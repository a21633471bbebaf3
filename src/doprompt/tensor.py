"""Minimal reverse-mode automatic differentiation over dense numpy tensors.

Provides the operations the model needs:

- arithmetic: `add`, `sub`, `mul`, `log`, `clamp_min`, `tensor_sum`,
  `matmul` (batched over leading axes);
- fused layers: `linear` (x @ w + b as one GEMM over the flattened leading
  axes), `attention` (parameter-free multi-head self-attention of projected
  q, k, v, with dropout on P and a backward from the saved softmax; with
  `queries` = n, only the first n tokens' outputs) and `mlp`
  (a transformer MLP, Drop(Drop(GELU(x W1 + b1)) W2 + b2), as one node);
- shape plumbing: `reshape`, `transpose`, `broadcast_to`, `concat`, indexing;
- nonlinearities and losses: `softmax`, `layer_norm`, `cross_entropy`;
- `dropout` and the stop-gradients `detach` and `no_grad`.

`gelu`, `div` and `exp` are single-op nodes that no model code calls (`mlp`
and `prompting.adapter_forward` fuse their GELU). They are kept only because
`bench/`'s tracer counts them by name and the tests' unfused oracles build
on them.

The graph node is a record, not the `Tensor`: an op whose operands need
gradients gives its output a `_Record` that holds the operands' records (or
the leaf tensors themselves), the backward closure and the gradient, and
`backward` walks the records. A closure keeps shapes, dtypes, flags and only
the arrays its backward reads, never an operand `Tensor`, so an interior
output's array is freed as soon as the caller drops the output, unless a
closure reads it (`softmax` and `exp` read their own outputs). The fused nodes
keep: `linear` W, and x if W needs a gradient; `layer_norm` the normalised x,
1 / std and gamma; `attention` q, k, v, P and its dropout mask; `mlp` x and
the hidden layer h (each only if the weight after it needs a gradient),
GELU'(x W1 + b1) and its two masks.

Gradients accumulate at fan-in records so shared parameters appearing in
several losses are handled correctly; only leaves keep theirs after `backward`.
Two threads may build and backpropagate graphs over the same leaves at once:
`no_grad` acts on the calling thread only, and `backward(loss, grads)`
accumulates the leaves' gradients into a dict of the caller's instead of
their `grad`.

Arrays are row-major, 32-bit by default; `default_dtype("float64")` switches
the engine to 64-bit (used by the gradient-check suite). GELU follows the
input's dtype: float64 applies `math.erf` element by element, float32 a
rational erf approximation, evaluated in cache-sized chunks, that keeps GELU
within 2e-6 absolute of the float64 value on [-10, 10] (about 1.4e-6 at
worst).

Dropout is one rule in `dropout`, `attention` and `mlp` alike. `_keep_mask`
decides: None, drawing nothing, without a generator or at rate 0, else a bool
mask of one 16-bit draw per element (the generator's raw 64-bit output, split
in four), kept where it is >= round(rate * 65536), capped at 65535. `_drop`
applies it in both directions: `x * (1 / (1 - rate))`, then `*= keep`. The
realised rate is the threshold / 65536 (0.1 -> 0.1000061), while kept values
are scaled by the nominal 1 / (1 - rate).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "add",
    "attention",
    "backward",
    "broadcast_to",
    "clamp_min",
    "concat",
    "cross_entropy",
    "default_dtype",
    "detach",
    "dropout",
    "exp",
    "gelu",
    "layer_norm",
    "linear",
    "log",
    "matmul",
    "mlp",
    "mul",
    "no_grad",
    "reshape",
    "softmax",
    "sub",
    "tensor_sum",
    "transpose",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


_DTYPE = np.float32


class _GradMode(threading.local):
    """Whether ops record a graph, per thread: on in every thread until `no_grad`."""

    enabled = True


_GRAD = _GradMode()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode), in the calling thread only."""
    prev, _GRAD.enabled = _GRAD.enabled, False
    try:
        yield
    finally:
        _GRAD.enabled = prev


@contextmanager
def default_dtype(dtype):
    """Temporarily switch the engine's default real type, in every thread."""
    global _DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
    prev, _DTYPE = _DTYPE, dt.type
    try:
        yield
    finally:
        _DTYPE = prev


class Tensor:
    """A dense n-d value; an op's output with `requires_grad` has a graph record.

    `data` is always a numpy array; `grad` is populated (same shape) by
    `backward` for every reachable leaf with `requires_grad`. `_record` is
    the output's `_Record` in the reverse-mode graph, None for a leaf and
    for an output recorded without grads.
    """

    __slots__ = ("data", "requires_grad", "grad", "_record")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._record = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __getitem__(self, idx) -> "Tensor":
        return getitem(self, idx)

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Record:
    """One op's node in the reverse-mode graph, apart from its output `Tensor`.

    `parents` holds, per operand, the operand's record, the operand itself
    if it is a leaf with `requires_grad`, or None if it needs no gradient.
    `backward_fn` maps the output's gradient to one gradient (or None) per
    operand. `grad` accumulates the output's gradient during `backward`.
    """

    __slots__ = ("parents", "backward_fn", "grad")

    def __init__(self, parents, backward_fn):
        self.parents = parents
        self.backward_fn = backward_fn
        self.grad = None


def _node(data, parents, backward_fn) -> Tensor:
    """Build an output tensor, recording the edge only when grads are live."""
    out = Tensor(data)
    if _GRAD.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._record = _Record(
            tuple((p if p._record is None else p._record) if p.requires_grad else None for p in parents),
            backward_fn,
        )
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _node(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _node(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad * bd

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _node(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad / bd

    def bwd(g):
        ga = _unbroadcast(g / bd, ad.shape)
        gb = _unbroadcast(-g * ad / (bd * bd), bd.shape)
        return ga, gb

    return _node(out, (a, b), bwd)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bwd(g):
        return (g * out,)

    return _node(out, (x,), bwd)


def log(x: Tensor) -> Tensor:
    xd = x.data
    out = np.log(xd)

    def bwd(g):
        return (g / xd,)

    return _node(out, (x,), bwd)


def clamp_min(x: Tensor, low: float) -> Tensor:
    xd = x.data
    out = np.maximum(xd, low)

    def bwd(g):
        return (g * (xd >= low),)

    return _node(out, (x,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes stack."""
    if a.ndim < 1 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = np.matmul(ad, bd)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return _node(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x: one GEMM over the flattened leading axes.
    The backward pass computes no gradient for an operand that does not require grad."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape} + {b.shape}")
    d_in, d_out = w.shape
    x_shape, wd = x.shape, w.data
    x_grad, w_grad, b_grad = x.requires_grad, w.requires_grad, b.requires_grad
    x2 = x.data.reshape(-1, d_in)
    out = x2 @ wd
    out += b.data
    if not w_grad:
        x2 = None  # only W's gradient reads the input

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ wd.T).reshape(x_shape) if x_grad else None
        gw = x2.T @ g2 if w_grad else None
        return gx, gw, g2.sum(axis=0) if b_grad else None

    return _node(out.reshape(x_shape[:-1] + (d_out,)), (x, w, b), bwd)


def attention(qkv: Tensor, num_heads: int, rate: float, rng: np.random.Generator | None,
              queries: int | None = None) -> Tensor:
    """Parameter-free multi-head self-attention of (B, T, 3D) q|k|v tokens, before the output projection.

    q, k and v, side by side as a `linear` of width 3D writes them, each split
    into `num_heads` heads of width dh = D / num_heads. P = softmax(q k^T /
    sqrt(dh)) row-wise with the row max subtracted, P is dropped out as
    `dropout` does (one `_keep_mask`, applied by `_drop`), O = P V, and the
    heads are merged back to (B, n, D).

    `queries` = n keeps only the first n tokens' queries (all T when None):
    every token is a key and a value, but only those n rows enter q k^T, the
    dropout mask and P V, so the output is the first n rows of the full one.
    Raises ShapeError unless 1 <= n <= T.

    The backward pass returns dqkv from the saved q, k, v, P and mask, as
    FlashAttention does without tiling: with Pd = P * mask, recomputed as the
    forward computed it, dV = Pd^T dO, dP = (dO V^T) * mask, dS = P * (dP -
    rowsum(dP * P)) / sqrt(dh), dQ = dS K, dK = dS^T Q. The q of a token past
    the first n gets a zero gradient. The node keeps no reference to `qkv`,
    only its shape and dtype.
    """
    if qkv.ndim != 3 or qkv.shape[-1] % (3 * num_heads):
        raise ShapeError(f"attention: expected (B, T, 3D) with D divisible by {num_heads}, got {qkv.shape}")
    b, t, d = qkv.shape[0], qkv.shape[1], qkv.shape[2] // 3
    n = t if queries is None else queries
    if not 1 <= n <= t:
        raise ShapeError(f"attention: queries must be in [1, {t}] for {t} tokens, got {queries}")
    dh = d // num_heads
    scale = 1.0 / math.sqrt(dh)
    # (3, B, heads, T, dh), contiguous so every head product is a plain GEMM
    q, k, v = np.ascontiguousarray(qkv.data.reshape(b, t, 3, num_heads, dh).transpose(2, 0, 3, 1, 4))
    q = q[:, :, :n]
    s = q @ k.swapaxes(-1, -2)
    s *= scale
    # numpy reduces a short contiguous last axis ~5x slower than this column loop; a max is exact
    row_max = s[..., 0].copy()
    for j in range(1, t):
        np.maximum(row_max, s[..., j], out=row_max)
    s -= row_max[..., None]
    p = np.exp(s, out=s)
    p /= p.sum(axis=-1, keepdims=True)
    keep = _keep_mask(p.shape, rate, rng)
    out = (_drop(p, keep, rate) @ v).transpose(0, 2, 1, 3).reshape(b, n, d)
    qkv_shape, qkv_dtype = qkv.shape, qkv.dtype

    def bwd(g):
        go = g.reshape(b, n, num_heads, dh).transpose(0, 2, 1, 3)
        dp = go @ v.swapaxes(-1, -2)
        _drop(dp, keep, rate, out=dp)
        ds = dp - (dp * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        # dq, dk and dv are written in the layout q, k and v were read from qkv
        dqkv = np.empty(qkv_shape, dtype=qkv_dtype)
        dq, dk, dv = dqkv.reshape(b, t, 3, num_heads, dh).transpose(2, 0, 3, 1, 4)
        np.matmul(ds, k, out=dq[:, :, :n])
        dq[:, :, n:] = 0.0
        np.matmul(ds.swapaxes(-1, -2), q, out=dk)
        np.matmul(_drop(p, keep, rate).swapaxes(-1, -2), go, out=dv)
        return (dqkv,)

    return _node(out, (qkv,), bwd)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, rate: float,
        rng: np.random.Generator | None) -> Tensor:
    """Drop(Drop(GELU(x W1 + b1)) W2 + b2) over the last axis of x, as one node.

    Both GEMMs run over the flattened leading axes as in `linear`, GELU as in
    `gelu`, and dropout as in `dropout`, in place: one `_keep_mask` for the
    hidden layer, then one for the output, each applied by `_drop`. The
    backward pass replays the backward operations of those nodes in their
    order, so at rate 0 values and gradients are bitwise those of `linear`,
    `gelu`, `linear`. It computes no gradient for an operand that does not
    require grad.

    GELU runs in place on the pre-activation a, in slices of rows of about
    `_CDF_CHUNK` elements, so the hidden layer takes one array, not three;
    each element gets `gelu`'s arithmetic, so the bits are its.

    The node keeps the masks, x if W1 needs a gradient, the hidden layer h if
    W2 does, and GELU'(a) of the pre-activation a. GELU'(a) is computed in
    the forward, slice by slice, and only when grads are recorded and x, W1
    or b1 needs one, so a pass without grads pays nothing for it.
    """
    if (w1.ndim != 2 or w2.ndim != 2 or x.ndim < 1 or x.shape[-1] != w1.shape[0] or b1.shape != w1.shape[1:]
            or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ShapeError(
            f"mlp: incompatible shapes {x.shape} x {w1.shape} + {b1.shape} x {w2.shape} + {b2.shape}"
        )
    d_in, d_out = w1.shape[0], w2.shape[1]
    x_shape, wd1, wd2 = x.shape, w1.data, w2.data
    x_grad, w1_grad, b1_grad, w2_grad, b2_grad = (p.requires_grad for p in (x, w1, b1, w2, b2))
    x2 = x.data.reshape(-1, d_in)
    h = x2 @ wd1
    h += b1.data
    hidden_grad = _GRAD.enabled and (x_grad or w1_grad or b1_grad)
    dgelu = np.empty_like(h) if hidden_grad else None
    rows = max(1, _CDF_CHUNK // max(1, h.shape[1]))
    for start in range(0, len(h), rows):  # GELU in place, a slice of rows at a time
        a = h[start : start + rows]
        cdf = _normal_cdf(a)
        if hidden_grad:
            dgelu[start : start + rows] = _gelu_derivative(a, cdf)
        a *= cdf
    keep1 = _keep_mask(h.shape, rate, rng)
    _drop(h, keep1, rate, out=h)
    out = h @ wd2
    out += b2.data
    keep2 = _keep_mask(out.shape, rate, rng)
    _drop(out, keep2, rate, out=out)
    if not w1_grad:
        x2 = None  # only W1's gradient reads the input, and only W2's reads h
    if not w2_grad:
        h = None

    def bwd(g):
        g2 = _drop(g.reshape(-1, d_out), keep2, rate)
        gw2 = h.T @ g2 if w2_grad else None
        gb2 = g2.sum(axis=0) if b2_grad else None
        if dgelu is None:
            return None, None, None, gw2, gb2
        ga = g2 @ wd2.T
        _drop(ga, keep1, rate, out=ga)
        ga *= dgelu  # the last product of `gelu`'s backward, so the bits are its
        gx = (ga @ wd1.T).reshape(x_shape) if x_grad else None
        gw1 = x2.T @ ga if w1_grad else None
        gb1 = ga.sum(axis=0) if b1_grad else None
        return gx, gw1, gb1, gw2, gb2

    return _node(out.reshape(x_shape[:-1] + (d_out,)), (x, w1, b1, w2, b2), bwd)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape) -> Tensor:
    in_shape = x.shape
    out = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(in_shape),)

    return _node(out, (x,), bwd)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.transpose(x.data, axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _node(out, (x,), bwd)


def broadcast_to(x: Tensor, shape) -> Tensor:
    shape, in_shape = tuple(shape), x.shape
    out = np.broadcast_to(x.data, shape).copy()

    def bwd(g):
        return (_unbroadcast(g, in_shape),)

    return _node(out, (x,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    ends = np.cumsum([t.shape[axis] for t in tensors]).tolist()
    parts = [lead + (slice(start, end),) for start, end in zip([0, *ends], ends)]

    def bwd(g):
        return tuple(g[part] for part in parts)  # views, as np.split gives

    return _node(out, tuple(tensors), bwd)


def getitem(x: Tensor, idx) -> Tensor:
    out = x.data[idx]
    in_shape, dtype = x.shape, x.dtype
    advanced = any(
        isinstance(i, (np.ndarray, list)) for i in (idx if isinstance(idx, tuple) else (idx,))
    )

    def bwd(g):
        gx = np.zeros(in_shape, dtype=dtype)
        if advanced:
            np.add.at(gx, idx, g)
        else:
            gx[idx] += g
        return (gx,)

    return _node(out, (x,), bwd)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)
    in_shape = x.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, in_shape).copy(),)

    return _node(out, (x,), bwd)


# ---------------------------------------------------------------------------
# model nonlinearities


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis` (max-subtraction before exponentiation)."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis (biased variance), then affine. The
    backward pass skips the gradient of a `gamma` or `beta` that does not require grad."""
    n = x.shape[-1]
    # each row mean is ndarray.mean's float32 sum and divide, without its Python wrapper
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n  # biased
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc
    xhat *= inv
    gd, dtype = gamma.data, x.dtype
    gamma_grad, beta_grad, beta_shape = gamma.requires_grad, beta.requires_grad, beta.shape
    out = xhat * gd
    out += beta.data

    def bwd(g):
        # inv * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat)), in two buffers
        gx = g * gd
        t = gx * xhat
        t_mean = np.add.reduce(t, axis=-1, keepdims=True) / n
        gx -= np.add.reduce(gx, axis=-1, keepdims=True) / n
        gx -= np.multiply(xhat, t_mean, out=t)
        gx *= inv
        ggamma = _unbroadcast(g * xhat, gd.shape) if gamma_grad else None
        gbeta = _unbroadcast(g, beta_shape) if beta_grad else None
        return gx.astype(dtype, copy=False), ggamma, gbeta

    return _node(out, (x, gamma, beta), bwd)


# Rational approximation of erf on [-4, 4] (the float32 one of XLA and
# Eigen): odd numerator over even denominator, coefficients of z^12 .. z^0
# in z^2. Beyond |z| = 4, erf rounds to +-1 in float32.
_ERF_NUM = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02,
))
_ERF_DEN = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02,
))
# Elements per chunk of the float32 CDF: its temporaries stay in cache,
# where a whole-array polynomial at inference sizes is bound by memory.
_CDF_CHUNK = 1 << 16
_erf = np.frompyfunc(math.erf, 1, 1)  # object results; cast back to float64


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = (1 + erf(x / sqrt(2))) / 2 in x's dtype; see the module docstring."""
    if x.dtype != np.float32:
        return 0.5 * (1.0 + np.asarray(_erf(x / math.sqrt(2.0)), dtype=np.float64))
    cdf = np.empty(x.shape, dtype=x.dtype)  # C order, so flat_cdf is a view
    flat_x, flat_cdf = x.reshape(-1), cdf.reshape(-1)
    for start in range(0, flat_x.size, _CDF_CHUNK):
        z = flat_x[start : start + _CDF_CHUNK] * np.float32(1.0 / math.sqrt(2.0))
        np.clip(z, -4.0, 4.0, out=z)
        z2 = z * z
        num = flat_cdf[start : start + _CDF_CHUNK]
        np.multiply(z2, _ERF_NUM[0], out=num)
        for c in _ERF_NUM[1:-1]:
            num += c
            num *= z2
        num += _ERF_NUM[-1]
        num *= z
        den = z2 * _ERF_DEN[0]
        for c in _ERF_DEN[1:-1]:
            den += c
            den *= z2
        den += _ERF_DEN[-1]
        num /= den
        num += 1.0
        num *= 0.5
    return cdf


def gelu(x: Tensor) -> Tensor:
    """Gaussian-CDF GELU: x * Phi(x); exact in float64, within 2e-6 absolute
    in float32 (see the module docstring)."""
    xd = x.data
    cdf = _normal_cdf(xd)
    out = xd * cdf

    def bwd(g):
        gx = _gelu_derivative(xd, cdf)
        gx *= g
        return (gx,)

    return _node(out, (x,), bwd)


def _gelu_derivative(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU'(x) = cdf + x * pdf, pdf = exp(-x^2 / 2) / sqrt(2 pi), in one buffer."""
    gx = x * x
    gx *= -0.5
    np.exp(gx, out=gx)
    gx *= x
    gx *= 1.0 / math.sqrt(2.0 * math.pi)
    gx += cdf
    return gx


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target].

    `targets` are integer class indices of length B; out-of-range values
    raise IndexError.
    """
    t = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be BxC, got {logits.shape}")
    b, c = logits.shape
    if t.shape != (b,):
        raise ShapeError(f"cross_entropy: got {b} rows but {t.shape} targets")
    if t.min() < 0 or t.max() >= c:
        raise IndexError(f"cross_entropy: target out of range [0, {c})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    out = -logp[np.arange(b), t].mean()
    dtype = logits.dtype

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(b), t] -= 1.0
        return ((g * p / b).astype(dtype),)

    return _node(out, (logits,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: one `_keep_mask`, applied by `_drop` both ways; `x` itself without a mask."""
    keep = _keep_mask(x.shape, rate, rng)
    if keep is None:
        return x

    def bwd(g):
        return (_drop(g, keep, rate),)

    return _node(_drop(x.data, keep, rate), (x,), bwd)


def _keep_mask(shape, rate: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Whether dropout runs, and its mask: None, drawing nothing, when `rng` is None or `rate` == 0;
    else a bool mask of one 16-bit draw per element, kept where it is >= min(round(rate * 65536), 65535)."""
    if rng is None or rate == 0.0:
        return None
    n = math.prod(shape)
    bits = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    return (bits >= min(round(rate * 65536), 65535)).reshape(shape)


def _drop(x: np.ndarray, keep: np.ndarray | None, rate: float, out: np.ndarray | None = None) -> np.ndarray:
    """`x * (1 / (1 - rate))`, then `*= keep`, into `out` when given; `x` itself when `keep` is None."""
    if keep is None:
        return x
    out = np.multiply(x, 1.0 / (1.0 - rate), out=out)
    out *= keep
    return out


def detach(x: Tensor) -> Tensor:
    """Same values, no graph edge back to `x`."""
    return Tensor(x.data.copy())


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor, grads: dict | None = None) -> None:
    """Populate `grad` on every leaf reachable from a scalar loss, or `grads[leaf]` when `grads` is given.

    Walks the records from the loss's own. Gradients accumulate at fan-in
    records. A record releases its `grad` once passed to its parents; leaves
    keep theirs, so they accumulate across repeated calls until the caller
    clears them. A first contribution is stored as is and later ones are
    added out of place, so one array may be the grad of several tensors and
    is never written to. With `grads` (leaf -> array), the leaves' gradients
    accumulate there by the same rule and no leaf's `grad` is touched, so two
    threads can backpropagate through graphs that share leaves, each into a
    dict of its own. Training always passes one: `optim.write_grads` copies
    it into the optimizer's gradient row.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")

    def accumulate(node, g):
        if grads is None or type(node) is _Record:
            node.grad = g if node.grad is None else node.grad + g
        else:
            grads[node] = g if node not in grads else grads[node] + g

    root = loss if loss._record is None else loss._record
    accumulate(root, np.ones_like(loss.data))
    if root is loss:
        return

    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        record, expanded = stack.pop()
        if expanded:
            topo.append(record)
            continue
        if id(record) in seen:
            continue
        seen.add(id(record))
        stack.append((record, True))
        for p in record.parents:
            if type(p) is _Record and id(p) not in seen:
                stack.append((p, False))

    for record in reversed(topo):
        parent_grads = record.backward_fn(record.grad)
        record.grad = None
        for parent, g in zip(record.parents, parent_grads):
            if parent is None or g is None:
                continue
            accumulate(parent, g)
