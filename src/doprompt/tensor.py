"""Minimal reverse-mode automatic differentiation over dense numpy tensors.

Provides exactly the operations the model needs:

- arithmetic: `add`, `sub`, `mul`, `div`, `exp`, `log`, `clamp_min`,
  `tensor_sum`, `matmul` (batched over leading axes);
- fused layers: `linear` (x @ w + b as one GEMM over the flattened leading
  axes), `attention` (parameter-free multi-head self-attention of projected
  q, k, v, with dropout on P and a backward from the saved softmax; with
  `queries` = n, only the first n tokens' outputs) and `mlp`
  (a transformer MLP, Drop(Drop(GELU(x W1 + b1)) W2 + b2), as one node);
- shape plumbing: `reshape`, `transpose`, `broadcast_to`, `concat`, indexing;
- nonlinearities and losses: `softmax`, `layer_norm`, `gelu`,
  `cross_entropy`;
- `dropout` and the stop-gradients `detach` and `no_grad`.

Gradients accumulate at fan-in nodes so shared parameters appearing in
several losses are handled correctly; only leaves keep theirs after `backward`.

Arrays are row-major, 32-bit by default; `default_dtype("float64")` switches
the engine to 64-bit (used by the gradient-check suite). GELU follows the
input's dtype: float64 applies `math.erf` element by element, float32 a
rational erf approximation, evaluated in cache-sized chunks, that keeps GELU
within 2e-6 absolute of the float64 value on [-10, 10] (about 1.4e-6 at
worst).

Dropout runs exactly when it is given a generator and a nonzero rate. Every
mask, in `dropout`, `attention` and `mlp` alike, comes from `_keep_mask`: one
16-bit draw per element (the generator's raw 64-bit output, split in four),
kept where it is >= round(rate * 65536), capped at 65535. The realised rate is
that threshold / 65536 (0.1 -> 0.1000061), while kept values are scaled by the
nominal 1 / (1 - rate). A mask is a bool array, applied as `x * scale`, then
`*= keep`, in both directions.
"""

from __future__ import annotations

import math
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
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextmanager
def default_dtype(dtype):
    """Temporarily switch the engine's default real type."""
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
    """A dense n-d value, optionally a node in the reverse-mode graph.

    `data` is always a numpy array; `grad` is populated (same shape) by
    `backward` for every reachable leaf with `requires_grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

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


def _node(data, parents, backward_fn) -> Tensor:
    """Build an output tensor, recording the edge only when grads are live."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
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

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _node(out, (a, b), bwd)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bwd(g):
        return (g * out,)

    return _node(out, (x,), bwd)


def log(x: Tensor) -> Tensor:
    out = np.log(x.data)

    def bwd(g):
        return (g / x.data,)

    return _node(out, (x,), bwd)


def clamp_min(x: Tensor, low: float) -> Tensor:
    out = np.maximum(x.data, low)

    def bwd(g):
        return (g * (x.data >= low),)

    return _node(out, (x,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes stack."""
    if a.ndim < 1 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x: one GEMM over the flattened leading axes.
    The backward pass computes no gradient for an operand that does not require grad."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape} + {b.shape}")
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)
    out = x2 @ w.data
    out += b.data

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        return gx, gw, g2.sum(axis=0) if b.requires_grad else None

    return _node(out.reshape(x.shape[:-1] + (d_out,)), (x, w, b), bwd)


def attention(qkv: Tensor, num_heads: int, rate: float, rng: np.random.Generator | None,
              queries: int | None = None) -> Tensor:
    """Parameter-free multi-head self-attention of (B, T, 3D) q|k|v tokens, before the output projection.

    q, k and v, side by side as a `linear` of width 3D writes them, each split
    into `num_heads` heads of width dh = D / num_heads. P = softmax(q k^T /
    sqrt(dh)) row-wise with the row max subtracted, P is dropped out like
    `dropout` does (one `_keep_mask` drawn from `rng`, only when `rng` is given
    and `rate` > 0), O = P V, and the heads are merged back to (B, n, D).

    `queries` = n keeps only the first n tokens' queries (all T when None):
    every token is a key and a value, but only those n rows enter q k^T, the
    dropout mask and P V, so the output is the first n rows of the full one.
    Raises ShapeError unless 1 <= n <= T.

    The backward pass returns dqkv from the saved P and mask, as FlashAttention
    does without tiling: with Pd = P * mask, dV = Pd^T dO, dP = (dO V^T) * mask,
    dS = P * (dP - rowsum(dP * P)) / sqrt(dh), dQ = dS K, dK = dS^T Q. The q of
    a token past the first n gets a zero gradient.
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
    keep = _keep_mask(p.shape, rate, rng) if rng is not None and rate != 0.0 else None
    if keep is None:
        pd = p
    else:
        pd = p * (1.0 / (1.0 - rate))
        pd *= keep
    out = (pd @ v).transpose(0, 2, 1, 3).reshape(b, n, d)

    def bwd(g):
        go = g.reshape(b, n, num_heads, dh).transpose(0, 2, 1, 3)
        dp = go @ v.swapaxes(-1, -2)
        if keep is not None:
            dp *= 1.0 / (1.0 - rate)
            dp *= keep
        ds = dp - (dp * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        # dq, dk and dv are written in the layout q, k and v were read from qkv
        dqkv = np.empty_like(qkv.data)
        dq, dk, dv = dqkv.reshape(b, t, 3, num_heads, dh).transpose(2, 0, 3, 1, 4)
        np.matmul(ds, k, out=dq[:, :, :n])
        dq[:, :, n:] = 0.0
        np.matmul(ds.swapaxes(-1, -2), q, out=dk)
        np.matmul(pd.swapaxes(-1, -2), go, out=dv)
        return (dqkv,)

    return _node(out, (qkv,), bwd)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, rate: float,
        rng: np.random.Generator | None) -> Tensor:
    """Drop(Drop(GELU(x W1 + b1)) W2 + b2) over the last axis of x, as one node.

    Both GEMMs run over the flattened leading axes as in `linear`, GELU as in
    `gelu`, and dropout, only when `rng` is given and `rate` > 0, as in
    `dropout`, in place: one `_keep_mask` for the hidden layer, then one for
    the output. The backward pass replays the backward operations of those
    nodes in their order, so at rate 0 values and gradients are bitwise those
    of `linear`, `gelu`, `linear`. It computes no gradient for an operand that
    does not require grad.
    """
    if (w1.ndim != 2 or w2.ndim != 2 or x.ndim < 1 or x.shape[-1] != w1.shape[0] or b1.shape != w1.shape[1:]
            or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ShapeError(
            f"mlp: incompatible shapes {x.shape} x {w1.shape} + {b1.shape} x {w2.shape} + {b2.shape}"
        )
    d_in, d_out = w1.shape[0], w2.shape[1]
    drop = rng is not None and rate != 0.0
    scale = 1.0 / (1.0 - rate) if drop else 1.0
    x2 = x.data.reshape(-1, d_in)
    a = x2 @ w1.data
    a += b1.data
    cdf = _normal_cdf(a)
    h = a * cdf
    keep1 = keep2 = None
    if drop:
        keep1 = _keep_mask(h.shape, rate, rng)
        h *= scale
        h *= keep1
    out = h @ w2.data
    out += b2.data
    if drop:
        keep2 = _keep_mask(out.shape, rate, rng)
        out *= scale
        out *= keep2

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        if keep2 is not None:
            g2 = g2 * scale
            g2 *= keep2
        gw2 = h.T @ g2 if w2.requires_grad else None
        gb2 = g2.sum(axis=0) if b2.requires_grad else None
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return None, None, None, gw2, gb2
        gh = g2 @ w2.data.T
        if keep1 is not None:
            gh *= scale
            gh *= keep1
        ga = _gelu_grad(a, cdf, gh)
        gx = (ga @ w1.data.T).reshape(x.shape) if x.requires_grad else None
        gw1 = x2.T @ ga if w1.requires_grad else None
        gb1 = ga.sum(axis=0) if b1.requires_grad else None
        return gx, gw1, gb1, gw2, gb2

    return _node(out.reshape(x.shape[:-1] + (d_out,)), (x, w1, b1, w2, b2), bwd)


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
    shape = tuple(shape)
    out = np.broadcast_to(x.data, shape).copy()

    def bwd(g):
        return (_unbroadcast(g, x.shape),)

    return _node(out, (x,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tuple(tensors), bwd)


def getitem(x: Tensor, idx) -> Tensor:
    out = x.data[idx]
    advanced = any(
        isinstance(i, (np.ndarray, list)) for i in (idx if isinstance(idx, tuple) else (idx,))
    )

    def bwd(g):
        gx = np.zeros_like(x.data)
        if advanced:
            np.add.at(gx, idx, g)
        else:
            gx[idx] += g
        return (gx,)

    return _node(out, (x,), bwd)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, x.shape).copy(),)

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
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)  # biased
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gamma.data * xhat + beta.data

    def bwd(g):
        gxhat = g * gamma.data
        gx = inv * (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        )
        ggamma = _unbroadcast(g * xhat, gamma.shape) if gamma.requires_grad else None
        gbeta = _unbroadcast(g, beta.shape) if beta.requires_grad else None
        return gx.astype(x.dtype, copy=False), ggamma, gbeta

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
    cdf = _normal_cdf(x.data)
    out = x.data * cdf

    def bwd(g):
        return (_gelu_grad(x.data, cdf, g),)

    return _node(out, (x,), bwd)


def _gelu_grad(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi), in one buffer."""
    gx = x * x
    gx *= -0.5
    np.exp(gx, out=gx)
    gx *= x
    gx *= 1.0 / math.sqrt(2.0 * math.pi)
    gx += cdf
    gx *= g
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

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(b), t] -= 1.0
        return ((g * p / b).astype(logits.dtype),)

    return _node(out, (logits,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout with one `_keep_mask` drawn from `rng`; `x` itself
    when `rng` is None or `rate` == 0."""
    if rng is None or rate == 0.0:
        return x
    keep = _keep_mask(x.shape, rate, rng)
    scale = 1.0 / (1.0 - rate)
    out = x.data * scale
    out *= keep

    def bwd(g):
        gx = g * scale
        gx *= keep
        return (gx,)

    return _node(out, (x,), bwd)


def _keep_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Bool keep mask: one 16-bit draw per element, kept where it is >= min(round(rate * 65536), 65535)."""
    n = math.prod(shape)
    bits = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    return (bits >= min(round(rate * 65536), 65535)).reshape(shape)


def detach(x: Tensor) -> Tensor:
    """Same values, no graph edge back to `x`."""
    return Tensor(x.data.copy())


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Populate `grad` on every tensor reachable from a scalar loss.

    Gradients accumulate at fan-in nodes. An interior node (one an op made)
    releases its `grad` once passed to its parents; leaves keep theirs, so they
    accumulate across repeated calls until `optim.step_params` clears them. A
    first contribution is stored as is and later ones are added out of place,
    so one array may be the grad of several tensors and is never written to.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is None:
            continue
        grads = node._backward_fn(node.grad)
        node.grad = None
        for parent, g in zip(node._parents, grads):
            if not parent.requires_grad or g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
