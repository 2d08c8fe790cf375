"""Dense tensors with reverse-mode automatic differentiation.

Everything is a plain numpy array wrapped in a :class:`Tensor`; every op
builds the backward graph on the fly (define-by-run). Training runs in
float32, verification (gradient checking) in float64 via `use_dtype`.

Conventions:
  * an op computes its value and every intermediate its backward rule
    reads, defines `def backward(g)` (g is the gradient of its output), and
    returns `Tensor(value, parents=..., backward=backward)`; the node
    requires grad iff a parent does, and no closure refers to its own node,
  * a backward closure owns g and hands `_accumulate` only arrays it owns:
    g itself or a view of it, or an array it made, writable and of the
    receiving tensor's dtype, never one that another tensor's gradient or
    any value shares memory with; `_accumulate` keeps the first array a
    tensor receives as its gradient, without a copy,
  * only trailing-dimension broadcasting is supported for add/mul,
  * integer index arrays (token ids, gather positions) are passed as raw
    numpy arrays, never as Tensors,
  * `backward()` may only be called on a single-element tensor.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError

_DEFAULT_DTYPE = np.dtype(np.float32)


def default_dtype() -> np.dtype:
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigError(f"unsupported dtype {dt}; use float32 or float64")
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dt


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the default float dtype (e.g. float64 for checks)."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        """A leaf takes `requires_grad`; a node with parents requires grad iff one of them does."""
        arr = np.asarray(data)
        if arr.dtype != _DEFAULT_DTYPE:
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        parents = tuple(parents)
        if parents:
            requires_grad = any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad
        # a node that does not require grad keeps no graph: no parents, no closure
        self._parents = parents if requires_grad else ()
        self._backward = backward if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Reverse-mode sweep seeded with gradient 1; loss must be scalar.

        The sweep consumes the graph: each node drops its backward closure,
        its parent links and its own gradient once its closure has run, and
        the sweep lets go of it, so an activation and its gradient are freed
        as soon as no later closure needs them. Only leaves (nodes no op
        made, such as parameters) keep their gradients. No closure refers to
        its own node, so a graph that is never swept is freed by reference
        counting as soon as its output is dropped.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() needs a single-element tensor, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and id(parent) not in seen:  # a leaf has nothing to run
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = None
                node._parents = ()
                node.grad = None


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    """Add `grad` to t's gradient; the first array of t's shape and dtype becomes the gradient itself.

    The caller hands over an array it owns (see the module conventions), so
    a later write into t's gradient changes nothing else. A first array of
    another dtype is kept as a cast copy.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if grad.shape == t.data.shape:
            t.grad = grad if grad.dtype == t.data.dtype else grad.astype(t.data.dtype)
            return
        t.grad = np.zeros_like(t.data)
    t.grad += grad


def _accumulate_at(t: Tensor, index, grad: np.ndarray) -> None:
    """Add `grad` to t's gradient at `index` only; a missing gradient starts at zeros."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[index] += grad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` after trailing-dimension broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


# -- elementwise suite ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "add")

    def backward(g):
        ga = None
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            _accumulate(a, ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            if gb is ga and b.grad is None:  # a keeps g itself, and b would keep it too
                gb = gb.copy()
            _accumulate(b, gb)

    return Tensor(a.data + b.data, parents=(a, b), backward=backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, parents=(a, b), backward=backward)


def scale(x: Tensor, s: float) -> Tensor:
    def backward(g):
        _accumulate(x, g * s)

    return Tensor(x.data * s, parents=(x,), backward=backward)


def shift(x: Tensor, c: float) -> Tensor:
    def backward(g):
        _accumulate(x, g)

    return Tensor(x.data + c, parents=(x,), backward=backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); a NaN input stays NaN, so it reaches the loss instead of reading as 0."""
    def backward(g):
        g *= x.data > 0
        _accumulate(x, g)

    return Tensor(np.maximum(x.data, 0), parents=(x,), backward=backward)


def concat_lastdim(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_lastdim: empty part list")
    lead = parts[0].data.shape[:-1]
    for p in parts[1:]:
        if p.data.shape[:-1] != lead:
            raise ShapeError(
                f"concat_lastdim: shapes {parts[0].data.shape} and {p.data.shape} "
                "differ outside the last dimension"
            )
    widths = [p.data.shape[-1] for p in parts]

    def backward(g):
        offset = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[..., offset : offset + w])
            offset += w

    return Tensor(np.concatenate([p.data for p in parts], axis=-1), parents=parts, backward=backward)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    n = x.data.shape[axis]

    def backward(g):
        _accumulate(x, np.expand_dims(g, axis).repeat(n, axis=axis) / n)

    return Tensor(x.data.mean(axis=axis), parents=(x,), backward=backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(g):
        _accumulate(x, np.full_like(x.data, float(g)))

    return Tensor(x.data.sum(), parents=(x,), backward=backward)


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.data.size)


def scaled_mean_square(x: Tensor, s: float) -> Tensor:
    """s * mean(x * x) as one node.

    The value is bitwise that of the chain scale(mean_all(mul(x, x)), s).
    So is x's gradient 2·(c·x) when it is the first to reach x: the chain
    hands x its two equal `mul` terms c·x one after the other, and
    c·x + c·x is exact.
    """
    n = x.data.size

    def backward(g):
        c = float((g * s) * (1.0 / n))  # the chain's scale, scale and sum_all backward
        gx = x.data * c
        gx += gx
        _accumulate(x, gx)

    return Tensor((x.data * x.data).sum() * (1.0 / n) * s, parents=(x,), backward=backward)


# -- linear algebra ------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b; a 2-D right operand is a weight and runs as `linear`."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.data.shape} and {b.data.shape}")
    if b.data.ndim == 2:
        return linear(a, b)
    try:
        np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2])
    except ValueError:
        raise ShapeError(
            f"matmul: batch dimensions disagree for {a.data.shape} and {b.data.shape}"
        ) from None

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))

    return Tensor(np.matmul(a.data, b.data), parents=(a, b), backward=backward)


def linear(x: Tensor, weights, biases=None) -> Tensor:
    """x @ [w_1 | ... | w_K] + [b_1 | ... | b_K] as one node: K affine maps side by side.

    `weights` is one weight w [k, n] or a list of column blocks w_i [k, n_i];
    `biases` is None, or one bias b [n] or a list of b_i [n_i] to match.
    Columns n_1 + ... + n_(i-1) up to n_1 + ... + n_i of the output are
    x @ w_i + b_i. The leading axes of x fold into rows, so the forward pass
    and each gradient are one GEMM over the blocks placed side by side (as
    `attention` places [wq | wk | wv]; a lone block is used as it is, not
    copied). The bias is added to the product in place, and its gradient is
    the column sum of the folded output gradient; both weight and bias
    gradients are split back into the blocks' spans.
    """
    if isinstance(weights, Tensor):
        weights = [weights]
        biases = None if biases is None else [biases]
    k = x.data.shape[-1] if x.data.ndim else -1
    if not weights or any(w.data.ndim != 2 or w.data.shape[0] != k for w in weights):
        raise ShapeError(f"linear: need x[..., k] and w_i[k, n_i]; got {x.data.shape} and "
                         f"{[w.data.shape for w in weights]}")
    if biases is not None and (len(biases) != len(weights) or any(
            b.data.shape != w.data.shape[1:] for w, b in zip(weights, biases))):
        raise ShapeError(f"linear: bias shapes {[b.data.shape for b in biases]} do not match "
                         f"the weights' widths {[w.data.shape[1] for w in weights]}")
    w_all = weights[0].data if len(weights) == 1 else np.concatenate([w.data for w in weights], axis=1)
    n = w_all.shape[1]
    x2 = x.data.reshape(-1, k)
    y = x2 @ w_all
    if biases is not None:
        y += biases[0].data if len(biases) == 1 else np.concatenate([b.data for b in biases])
    biases = biases or []

    def backward(g):
        g2 = g.reshape(-1, n)
        if x.requires_grad:
            # with n == 1 the GEMM is one product per element; the broadcast is bitwise equal
            gx = g2 * w_all[:, 0] if n == 1 else g2 @ w_all.T
            _accumulate(x, gx.reshape(x.data.shape))
        g_w = x2.T @ g2 if any(w.requires_grad for w in weights) else None
        g_b = g2.sum(axis=0) if any(b.requires_grad for b in biases) else None
        hi = 0
        for i, w in enumerate(weights):
            lo, hi = hi, hi + w.data.shape[1]
            if w.requires_grad:
                _accumulate(w, g_w[:, lo:hi])
            if biases and biases[i].requires_grad:
                _accumulate(biases[i], g_b[lo:hi])

    return Tensor(y.reshape(x.data.shape[:-1] + (n,)), parents=(x, *weights, *biases), backward=backward)


def add_projections(h: Tensor, values: np.ndarray, weights: list[Tensor], biases: list[Tensor],
                    constant: np.ndarray | None = None) -> Tensor:
    """h + sum_c (values[..., c] * weights[c] + biases[c]) + constant as one node.

    h is [..., d], values [..., C] and each weight and bias [d]; `constant`
    (no gradient) broadcasts against h from the trailing axes. The values
    are cast to the default dtype, as `Tensor(values)` casts them. Each term
    is formed and added to h in field order, one rounded product, bias sum
    and running sum at a time, and the constant is added last, so the output
    and every gradient are bitwise equal to the per-field chain
    h = add(h, add(mul(Tensor(values[..., c:c+1]), w_c), b_c)) followed by
    add(h, Tensor(constant)). With neither weights nor a constant, h itself.
    """
    if not weights and constant is None:
        return h
    d = h.data.shape[-1]
    v = np.asarray(values).astype(_DEFAULT_DTYPE, copy=False)
    if v.shape != h.data.shape[:-1] + (len(weights),) or len(biases) != len(weights) or any(
            p.data.shape != (d,) for p in (*weights, *biases)):
        raise ShapeError(f"add_projections: values {v.shape}, weights {[w.data.shape for w in weights]} "
                         f"and biases {[b.data.shape for b in biases]} do not fit h {h.data.shape}")
    y = h.data.copy()
    term = np.empty_like(y)
    for c, (w, b) in enumerate(zip(weights, biases)):
        np.multiply(v[..., c : c + 1], w.data, out=term)
        term += b.data
        y += term
    if constant is not None:
        y += constant

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        g_b = g.sum(axis=lead) if any(b.requires_grad for b in biases) else None
        for c, (w, b) in enumerate(zip(weights, biases)):
            if w.requires_grad:
                _accumulate(w, np.multiply(g, v[..., c : c + 1], out=term).sum(axis=lead))
            if b.requires_grad:
                _accumulate(b, g_b.copy())
        _accumulate(h, g)

    return Tensor(y, parents=(h, *weights, *biases), backward=backward)


def reshape(x: Tensor, shape) -> Tensor:
    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return Tensor(x.data.reshape(shape), parents=(x,), backward=backward)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(x, np.transpose(g, inverse))

    return Tensor(np.transpose(x.data, axes), parents=(x,), backward=backward)


# -- convolution ---------------------------------------------------------


def conv1d(x: Tensor, w: Tensor, bias: Tensor, padding: str = "zero") -> Tensor:
    """Length-preserving 1-D convolution over [B, T, F_in] -> [B, T, F_c].

    out[b,t,c] = sum_{tap,f} x[b, t+tap-k//2, f] * w[tap,f,c] + bias[c],
    with out-of-range positions read as 0 (zero padding) or wrapped
    (circular). Every output starts at 0 and gets its products added one at
    a time, tap-major and feature-minor, then the bias, so each term is one
    rounded product and one rounded sum, and 64-bit results are bitwise
    equal to a plain nested-loop evaluation.

    The forward pass is one `einsum("tfc,tfn->cn", w, cols)` over column
    blocks cols[tap, f, b*T + t] = x[b, t + tap - k//2, f]. It is ordered
    because numpy's einsum (without `optimize`) runs its iterator with the
    summed tap and feature axes outermost, tap before feature, as they have
    the largest strides, and the output's B*T axis innermost, where its
    loop is out[n] += w * x[n] with one rounded product and one rounded sum
    per term. The one exception is a single output element (B*T = 1 and
    F_c = 1): the summed axes then become the inner loop, which numpy adds
    up in unrolled partial sums, so that case gets one zero column of
    padding, dropped after the einsum. Products of -0 change no sum: the
    accumulator starts at +0, and a rounded sum is -0 only when both terms
    are.
    """
    if padding not in ("zero", "circular"):
        raise ConfigError(f"conv1d: unknown padding {padding!r}")
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d: need x[B,T,F_in], w[k,F_in,F_c]; got {x.data.shape}, {w.data.shape}")
    k, w_fin, f_c = w.data.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d: kernel size must be odd, got {k}")
    batch, t_len, f_in = x.data.shape
    if w_fin != f_in:
        raise ShapeError(f"conv1d: input features {f_in} do not match kernel {w.data.shape}")
    if bias.data.shape != (f_c,):
        raise ShapeError(f"conv1d: bias shape {bias.data.shape} does not match output features {f_c}")
    half = k // 2
    dtype = x.data.dtype

    # cols[tap, f, b*T + t] = x[b, t + tap - half, f], or its padding
    xt = x.data.transpose(2, 0, 1)
    cols = np.empty((k, f_in, batch, t_len), dtype=dtype)
    if padding == "zero":
        padded = np.zeros((f_in, batch, t_len + 2 * half), dtype=dtype)
        padded[:, :, half : half + t_len] = xt
        for tap in range(k):
            cols[tap] = padded[:, :, tap : tap + t_len]
    else:
        for tap in range(k):
            cols[tap] = np.roll(xt, half - tap, axis=2)
    n_out = batch * t_len
    cols = cols.reshape(k, f_in, n_out)

    summed = cols
    if f_c == 1 and n_out == 1:  # see above: keep the output axis the inner loop
        summed = np.concatenate([cols, np.zeros((k, f_in, 1), dtype=dtype)], axis=2)
    acc = np.einsum("tfc,tfn->cn", w.data, summed)[:, :n_out]
    acc += bias.data[:, None]

    def backward(g):
        g2 = g.reshape(-1, f_c)
        _accumulate(bias, g2.sum(axis=0))
        if w.requires_grad:
            _accumulate(w, np.stack([cols[tap] @ g2 for tap in range(k)]))
        if x.requires_grad:
            # every tap's input gradient from one GEMM: per_tap[b, t, tap] = g[b, t] @ w[tap].T
            w_taps = w.data.transpose(2, 0, 1).reshape(f_c, k * f_in)
            per_tap = (g2 @ w_taps).reshape(batch, t_len, k, f_in)
            if padding == "zero":
                gp = np.zeros((batch, t_len + 2 * half, f_in), dtype=per_tap.dtype)
                for tap in range(k):
                    gp[:, tap : tap + t_len, :] += per_tap[:, :, tap]
                gx = gp[:, half : half + t_len, :]
            else:
                gx = np.zeros_like(x.data)
                for tap in range(k):
                    gx += np.roll(per_tap[:, :, tap], tap - half, axis=1)
            _accumulate(x, gx)

    return Tensor(acc.T.reshape(batch, t_len, f_c), parents=(x, w, bias), backward=backward)


# -- normalization & attention pieces -------------------------------------


def softmax_lastdim(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, y * (g - inner))

    return Tensor(y, parents=(x,), backward=backward)


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wmix: Tensor, heads: int) -> Tensor:
    """Bidirectional multi-head self-attention as one node, [B, T, d] -> [B, T, A].

    q, k and v come from one GEMM against [wq | wk | wv] side by side, each
    [d, A] and split into `heads` heads of A // heads channels. The scores
    are scaled by 1/sqrt(A // heads) and soft-maxed over keys with the row
    maximum subtracted first; the heads' contexts are merged back to
    [B, T, A] and mixed by wmix [A, A]. The backward pass is written out by
    hand, so none of the [B, H, T, T] intermediates is a graph node.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"attention: need x[B, T, d]; got {x.data.shape}")
    batch, t_len, d = x.data.shape
    width = wq.data.shape[-1]
    if any(w.data.shape != (d, width) for w in (wq, wk, wv)) or wmix.data.shape != (width, width):
        raise ShapeError(f"attention: weights {[w.data.shape for w in (wq, wk, wv, wmix)]} "
                         f"do not fit input width {d}")
    if heads < 1 or width % heads:
        raise ConfigError(f"attention: {width} channels do not split into {heads} heads")
    dk = width // heads
    scale_by = 1.0 / math.sqrt(dk)
    x2 = x.data.reshape(-1, d)
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    # [B, T, 3, H, dk] -> [3, B, H, T, dk]
    qkv = (x2 @ w_qkv).reshape(batch, t_len, 3, heads, dk).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv
    scores = np.matmul(q, k.swapaxes(-1, -2))
    scores *= scale_by
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)  # [B, H, T, T]
    merged = np.matmul(weights, v).transpose(0, 2, 1, 3).reshape(-1, width)  # [B*T, A]

    def backward(g):
        g2 = g.reshape(-1, width)
        if wmix.requires_grad:
            _accumulate(wmix, merged.T @ g2)
        g_ctx = (g2 @ wmix.data.T).reshape(batch, t_len, heads, dk).transpose(0, 2, 1, 3)
        g_qkv = np.empty((batch, t_len, 3, heads, dk), dtype=g2.dtype)
        gq, gk, gv = g_qkv.transpose(2, 0, 3, 1, 4)
        gv[...] = np.matmul(weights.swapaxes(-1, -2), g_ctx)
        g_w = np.matmul(g_ctx, v.swapaxes(-1, -2))
        g_s = weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True))
        g_s *= scale_by
        gq[...] = np.matmul(g_s, k)
        gk[...] = np.matmul(g_s.swapaxes(-1, -2), q)
        g_qkv2 = g_qkv.reshape(-1, 3 * width)
        if x.requires_grad:
            _accumulate(x, (g_qkv2 @ w_qkv.T).reshape(x.data.shape))
        g_wqkv = x2.T @ g_qkv2
        for i, w in enumerate((wq, wk, wv)):
            if w.requires_grad:
                _accumulate(w, g_wqkv[:, i * width : (i + 1) * width])

    return Tensor((merged @ wmix.data).reshape(batch, t_len, width),
                  parents=(x, wq, wk, wv, wmix), backward=backward)


LAYER_NORM_EPS = 1e-5


class _Normalized:
    """The layer normalisation of s [..., d] over its last axis, and its backward rule.

    `out` is xhat * gamma + beta with xhat = (s - mean) / sqrt(var + eps);
    `layer_norm` and `residual_norm` both run this arithmetic.
    """

    def __init__(self, op: str, s: np.ndarray, gamma: Tensor, beta: Tensor, eps: float):
        if eps <= 0:
            raise ConfigError(f"{op}: eps must be positive, got {eps}")
        d = s.shape[-1]
        if gamma.data.shape != (d,) or beta.data.shape != (d,):
            raise ShapeError(
                f"{op}: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} "
                f"do not match feature width {d}"
            )
        self.gamma, self.beta = gamma, beta
        xc = s - s.mean(axis=-1, keepdims=True)
        var = np.square(xc).mean(axis=-1, keepdims=True)
        self.inv = 1.0 / np.sqrt(var + eps)
        xc *= self.inv
        self.xhat = xc
        self.out = xc * gamma.data
        self.out += beta.data

    def backward(self, g: np.ndarray, need_input: bool) -> np.ndarray | None:
        """Hand gamma and beta their gradients; return s's gradient (a new array) if `need_input`."""
        lead = tuple(range(g.ndim - 1))
        xhat = self.xhat
        _accumulate(self.beta, g.sum(axis=lead))
        gx = g * xhat
        _accumulate(self.gamma, gx.sum(axis=lead))
        if not need_input:
            return None
        gi = np.multiply(g, self.gamma.data, out=gx)
        m1 = gi.mean(axis=-1, keepdims=True)
        m2 = (gi * xhat).mean(axis=-1, keepdims=True)
        gi -= m1
        gi -= xhat * m2
        gi *= self.inv
        return gi


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    norm = _Normalized("layer_norm", x.data, gamma, beta, eps)

    def backward(g):
        gx = norm.backward(g, x.requires_grad)
        if gx is not None:
            _accumulate(x, gx)

    return Tensor(norm.out, parents=(x, gamma, beta), backward=backward)


def residual_norm(h: Tensor, y: Tensor, gamma: Tensor, beta: Tensor, p: float,
                  rng: np.random.Generator | None) -> Tensor:
    """layer_norm(h + dropout(y, p, rng), gamma, beta) as one node: a post-norm residual sublayer.

    The keep mask is drawn from `rng` as `dropout` draws it, and the sum and
    its normalisation are those of `add` and `layer_norm`, so the output,
    every gradient and the stream's state after the call are bitwise those
    of layer_norm(add(h, dropout(y, p, rng)), gamma, beta).
    """
    if h.data.shape != y.data.shape:
        raise ShapeError(f"residual_norm: h {h.data.shape} and y {y.data.shape} differ in shape")
    keep = _keep_mask(y.data, p, rng)
    if keep is None:
        s = h.data + y.data
    else:
        s = y.data * keep
        s += h.data
    norm = _Normalized("residual_norm", s, gamma, beta, LAYER_NORM_EPS)

    def backward(g):
        gs = norm.backward(g, h.requires_grad or y.requires_grad)
        if gs is None:
            return
        if y.requires_grad:
            gy = gs if keep is None else gs * keep
            _accumulate(y, gy.copy() if gy is gs and h.requires_grad else gy)  # h keeps gs itself
        _accumulate(h, gs)

    return Tensor(norm.out, parents=(h, y, gamma, beta), backward=backward)


# -- lookups and gathers ---------------------------------------------------


def _check_ids(op: str, ids: np.ndarray, sizes) -> None:
    """Integer ids whose last axis indexes tables of `sizes` rows; IndexError names the first bad id."""
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"{op}: ids must be integers, got dtype {ids.dtype}")
    if not ids.size:
        return
    cols = ids.reshape(-1, ids.shape[-1])
    lo, hi = cols.min(axis=0), cols.max(axis=0)
    sizes = np.asarray(sizes)
    bad = np.nonzero((lo < 0) | (hi >= sizes))[0]
    if bad.size:
        k = bad[0]
        value = hi[k] if hi[k] >= sizes[k] else lo[k]
        raise IndexError(f"{op}: id {int(value)} out of range for table of {int(sizes[k])} rows")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into `table` [V, d]; `ids` is an integer ndarray."""
    ids = np.asarray(ids)
    _check_ids("embedding", ids[..., None], [table.data.shape[0]])

    def backward(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids.ravel(), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, acc)

    return Tensor(table.data[ids], parents=(table,), backward=backward)


def embedding_sum(tables: list[Tensor], ids: np.ndarray) -> Tensor:
    """sum_k tables[k][ids[..., k]] as one node; tables [V_k, d], ids [..., K] integers.

    The K looked-up rows are summed in float64, one table at a time, and
    rounded once to the table dtype; they are read from the tables stacked
    row-wise in float64, so no addition converts. Backward is a segment sum
    done as one one-hot GEMM over the row-stacked tables, split back into
    per-table gradients.
    """
    ids = np.asarray(ids)
    if ids.ndim < 1 or ids.shape[-1] != len(tables):
        raise ShapeError(f"embedding_sum: ids {ids.shape} do not end in {len(tables)} table columns")
    width = tables[0].data.shape[1]
    if any(t.data.ndim != 2 or t.data.shape[1] != width for t in tables):
        raise ShapeError(f"embedding_sum: tables {[t.data.shape for t in tables]} differ in width")
    sizes = [t.data.shape[0] for t in tables]
    _check_ids("embedding_sum", ids, sizes)
    ends = np.cumsum(sizes)
    rows = ids.reshape(-1, len(tables)) + (ends - sizes)  # row of each id in the row-stacked tables
    stacked = np.concatenate([t.data for t in tables], dtype=np.float64)
    summed = np.zeros((len(rows), width))
    for k in range(len(tables)):
        summed += stacked[rows[:, k]]

    def backward(g):
        g = g.reshape(-1, width)
        onehot = np.zeros((int(ends[-1]), len(rows)), dtype=g.dtype)
        onehot[rows, np.arange(len(rows))[:, None]] = 1.0  # a row's K ids hit K distinct tables
        grad = onehot @ g
        for t, end, size in zip(tables, ends, sizes):
            _accumulate(t, grad[end - size : end])

    return Tensor(summed.astype(tables[0].data.dtype).reshape(ids.shape[:-1] + (width,)),
                  parents=tables, backward=backward)


def gather_bt(x: Tensor, b_idx: np.ndarray, t_idx: np.ndarray) -> Tensor:
    """Select rows x[b_idx[i], t_idx[i], :] from a [B, T, D] tensor."""
    def backward(g):
        acc = np.zeros_like(x.data)
        np.add.at(acc, (b_idx, t_idx), g)
        _accumulate(x, acc)

    return Tensor(x.data[b_idx, t_idx], parents=(x,), backward=backward)


# -- fused losses ----------------------------------------------------------


def _cross_entropy_rows(z: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summed cross entropy of logit rows z [M, V] against targets [M], and its gradient."""
    rows = np.arange(z.shape[0])
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    sums = e.sum(axis=-1, keepdims=True)
    lse = zmax[:, 0] + np.log(sums[:, 0])
    loss = (lse - z[rows, targets]).sum()
    dz = e / sums
    dz[rows, targets] -= 1.0
    return loss, dz


def cross_entropy_sum(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Summed cross entropy of [M, V] logits against integer targets [M]."""
    targets = np.asarray(targets)
    m, v = logits.data.shape
    if targets.shape != (m,):
        raise ShapeError(f"cross_entropy_sum: targets {targets.shape} do not match logits {logits.data.shape}")
    loss, dz = _cross_entropy_rows(logits.data, targets)

    def backward(g):
        _accumulate(logits, dz * float(g))

    return Tensor(loss, parents=(logits,), backward=backward)


def _check_cell_grid(op: str, z: np.ndarray, targets: np.ndarray, mask: np.ndarray, n_fields: int) -> None:
    if mask.shape != targets.shape or mask.shape[:-1] != z.shape[:-1] or mask.shape[-1] != n_fields:
        raise ShapeError(f"{op}: mask {mask.shape} and targets {targets.shape} do not match "
                         f"{n_fields} fields of the predictions {z.shape}")


def masked_cross_entropy_sum(logits: Tensor, spans: list[tuple[int, int]], targets: np.ndarray,
                             mask: np.ndarray) -> tuple[Tensor, int]:
    """Cross entropy summed over the masked cells of every field, as one node, and its hit count.

    Field k's logits are the columns spans[k] = (lo, hi) of logits [B, T, W];
    targets and mask are [B, T, K]. Only masked cells are read. Fields are
    summed in order, each field's cells in (b, t) order, so the value equals
    a per-field `cross_entropy_sum` chain over the masked cells. The backward
    pass writes each field's gradient into its span of the logits' gradient.
    The count is of masked cells whose span's argmax (the first maximum) is
    the target, read from the same gathered rows.
    """
    z = logits.data
    _check_cell_grid("masked_cross_entropy_sum", z, targets, mask, len(spans))
    if any(not 0 <= lo < hi <= z.shape[-1] for lo, hi in spans):
        raise ShapeError(f"masked_cross_entropy_sum: spans {spans} do not fit width {z.shape[-1]}")
    total = np.zeros((), dtype=_DEFAULT_DTYPE)
    cells = []
    hits = 0
    # every masked cell at once: field-major, and in (b, t) order within a field
    field, *where = np.nonzero(np.moveaxis(mask, -1, 0))
    bounds = np.searchsorted(field, np.arange(len(spans) + 1))
    for k, (lo, hi) in enumerate(spans):
        idx = tuple(a[bounds[k] : bounds[k + 1]] for a in where)
        if len(idx[0]):
            at = idx + (slice(lo, hi),)
            rows, want = z[at], targets[idx + (k,)]
            hits += int(np.count_nonzero(rows.argmax(axis=-1) == want))
            loss, d = _cross_entropy_rows(rows, want)
            total = total + loss
            cells.append((at, d))

    def backward(g):
        g = float(g)
        for at, d in cells:
            _accumulate_at(logits, at, d * g)

    return Tensor(total, parents=(logits,), backward=backward), hits


def masked_squared_error_sum(preds: Tensor, start: int, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Squared error summed over the masked cells of every field, as one node.

    Field k's prediction is column start + k of preds [B, T, W]; targets and
    mask are [B, T, K]. The K columns are one block: its error is formed once,
    with every unmasked cell set to 0, so no unmasked value reaches the sum or
    the gradient. The backward pass writes the block's gradient in place.
    """
    z = preds.data
    n_fields = mask.shape[-1]
    _check_cell_grid("masked_squared_error_sum", z, targets, mask, n_fields)
    if not 0 <= start <= z.shape[-1] - n_fields:
        raise ShapeError(f"masked_squared_error_sum: {n_fields} columns from {start} "
                         f"do not fit width {z.shape[-1]}")
    cols = (..., slice(start, start + n_fields))
    diff = np.where(mask, z[cols] - targets.astype(z.dtype, copy=False), z.dtype.type(0))

    def backward(g):
        _accumulate_at(preds, cols, 2.0 * diff * float(g))

    return Tensor((diff * diff).sum(), parents=(preds,), backward=backward)


def bce_with_logits_sum(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Summed binary cross entropy; probability = sigmoid(logit), computed stably."""
    y = np.asarray(labels, dtype=logits.data.dtype)
    z = logits.data
    if z.shape != y.shape:
        raise ShapeError(f"bce_with_logits_sum: labels {y.shape} do not match logits {z.shape}")
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def backward(g):
        _accumulate(logits, (sigmoid(z) - y) * float(g))

    return Tensor(loss.sum(), parents=(logits,), backward=backward)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable logistic function on raw arrays (not a graph op)."""
    z = np.asarray(z)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _keep_mask(x: np.ndarray, p: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout multipliers for x (0 or 1 / (1 - p)) drawn from rng; None when rng is None or p <= 0."""
    if rng is None or p <= 0.0:
        return None
    if p >= 1.0:
        raise ConfigError(f"dropout: rate must be < 1, got {p}")
    multiplier = x.dtype.type(1.0) / x.dtype.type(1.0 - p)  # as `mask / (1 - p)` rounds it
    return np.multiply(rng.random(x.shape) >= p, multiplier, dtype=x.dtype)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rng is None or p == 0."""
    keep = _keep_mask(x.data, p, rng)
    return x if keep is None else mul(x, Tensor(keep))


# -- gradient checking -------------------------------------------------------


@dataclass
class GradReport:
    """Per-parameter max relative error of analytic vs central differences."""

    max_rel_error: dict = field(default_factory=dict)
    tol: float = 1e-4
    passed: bool = False

    def worst(self) -> list[tuple[str, float]]:
        return sorted(self.max_rel_error.items(), key=lambda kv: -kv[1])

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"grad check {status} (tol {self.tol:g})"]
        for name, err in self.worst():
            lines.append(f"  {name:40s} {err:.3e}")
        return "\n".join(lines)


def grad_check(build_loss, params: dict, h: float = 1e-5, tol: float = 1e-4,
               max_coords: int = 64, seed: int = 0) -> GradReport:
    """Compare analytic gradients of `build_loss(params)` with central differences.

    Perturbs at most `max_coords` randomly chosen coordinates per parameter
    (seeded). Relative error uses max(|analytic|, |numeric|, 1e-8) as the
    denominator. Meant to run under `use_dtype("float64")`; float32 noise
    swamps the 1e-4 tolerance.
    """
    for name, value in (("h", h), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"grad_check: {name} (--{name}) must be finite and positive, got {value}")
    if max_coords < 1:
        raise ConfigError(f"grad_check: max_coords (--max-coords) must be at least 1, got {max_coords}")
    loss = build_loss(params)
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check: loss is non-finite at the unperturbed point")
    for p in params.values():
        p.grad = None
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        n = flat.size
        if n <= max_coords:
            coords = np.arange(n)
        else:
            coords = np.sort(rng.choice(n, size=max_coords, replace=False))
        worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            up = float(build_loss(params).data)
            flat[i] = orig - h
            down = float(build_loss(params).data)
            flat[i] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericError(f"grad_check: non-finite loss when perturbing {name}[{i}]")
            numeric = (up - down) / (2.0 * h)
            err = abs(float(ana[i]) - numeric) / max(abs(float(ana[i])), abs(numeric), 1e-8)
            worst = max(worst, err)
        errors[name] = worst
    return GradReport(max_rel_error=errors, tol=tol, passed=all(e < tol for e in errors.values()))
