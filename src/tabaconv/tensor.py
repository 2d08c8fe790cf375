"""Dense tensors with reverse-mode automatic differentiation.

Everything is a plain numpy array wrapped in a :class:`Tensor`; every op
builds the backward graph on the fly (define-by-run). Training runs in
float32, verification (gradient checking) in float64 via `use_dtype`.

Conventions:
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
        arr = np.asarray(data)
        if arr.dtype != _DEFAULT_DTYPE:
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        # nodes that do not require grad are detached leaves: no graph kept
        self._parents = tuple(parents) if requires_grad else ()
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

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return shift(self, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, scale(other, -1.0))
        return shift(self, -float(other))

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)

    def relu(self):
        return relu(self)

    def reshape(self, shape):
        return reshape(self, shape)

    def backward(self) -> None:
        """Reverse-mode sweep seeded with gradient 1; loss must be scalar."""
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
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()


def tensor(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += grad


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
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad, parents=(a, b))

    def backward():
        g = out.grad
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "mul")
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad, parents=(a, b))

    def backward():
        g = out.grad
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def scale(x: Tensor, s: float) -> Tensor:
    out = Tensor(x.data * s, requires_grad=x.requires_grad, parents=(x,))

    def backward():
        _accumulate(x, out.grad * s)

    out._backward = backward if out.requires_grad else None
    return out


def shift(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data + c, requires_grad=x.requires_grad, parents=(x,))

    def backward():
        _accumulate(x, out.grad)

    out._backward = backward if out.requires_grad else None
    return out


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0), requires_grad=x.requires_grad, parents=(x,))

    def backward():
        _accumulate(x, out.grad * mask)

    out._backward = backward if out.requires_grad else None
    return out


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
    out = Tensor(
        np.concatenate([p.data for p in parts], axis=-1),
        requires_grad=any(p.requires_grad for p in parts),
        parents=tuple(parts),
    )

    def backward():
        g = out.grad
        offset = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[..., offset : offset + w])
            offset += w

    out._backward = backward if out.requires_grad else None
    return out


def mean_axis(x: Tensor, axis: int) -> Tensor:
    n = x.data.shape[axis]
    out = Tensor(x.data.mean(axis=axis), requires_grad=x.requires_grad, parents=(x,))

    def backward():
        _accumulate(x, np.expand_dims(out.grad, axis).repeat(n, axis=axis) / n)

    out._backward = backward if out.requires_grad else None
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum(), requires_grad=x.requires_grad, parents=(x,))

    def backward():
        _accumulate(x, np.full_like(x.data, float(out.grad)))

    out._backward = backward if out.requires_grad else None
    return out


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.data.size)


# -- linear algebra ------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.data.shape} and {b.data.shape}")
    try:
        np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2])
    except ValueError:
        raise ShapeError(
            f"matmul: batch dimensions disagree for {a.data.shape} and {b.data.shape}"
        ) from None
    out = Tensor(
        np.matmul(a.data, b.data),
        requires_grad=a.requires_grad or b.requires_grad,
        parents=(a, b),
    )

    def backward():
        g = out.grad
        _accumulate(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape))
        _accumulate(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad, parents=(x,))

    def backward():
        _accumulate(x, out.grad.reshape(x.data.shape))

    out._backward = backward if out.requires_grad else None
    return out


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor(np.transpose(x.data, axes), requires_grad=x.requires_grad, parents=(x,))

    def backward():
        _accumulate(x, np.transpose(out.grad, inverse))

    out._backward = backward if out.requires_grad else None
    return out


# -- convolution ---------------------------------------------------------


def conv1d(x: Tensor, w: Tensor, bias: Tensor, padding: str = "zero") -> Tensor:
    """Length-preserving 1-D convolution over [B, T, F_in] -> [B, T, F_c].

    out[b,t,c] = sum_{tap,f} x[b, t+tap-k//2, f] * w[tap,f,c] + bias[c],
    with out-of-range positions read as 0 (zero padding) or wrapped
    (circular). The forward pass accumulates one fused multiply-add per
    (tap, feature) in a fixed order so 64-bit results are bitwise equal to
    a plain nested-loop evaluation.
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

    if padding == "zero":
        padded = np.zeros((batch, t_len + 2 * half, f_in), dtype=x.data.dtype)
        padded[:, half : half + t_len, :] = x.data
        shifted = [padded[:, tap : tap + t_len, :] for tap in range(k)]
    else:
        shifted = [np.roll(x.data, half - tap, axis=1) for tap in range(k)]

    out_data = np.zeros((batch, t_len, f_c), dtype=x.data.dtype)
    for tap in range(k):
        s = shifted[tap]
        wk = w.data[tap]
        for f in range(f_in):
            out_data += s[:, :, f, None] * wk[f]
    out_data += bias.data

    out = Tensor(
        out_data,
        requires_grad=x.requires_grad or w.requires_grad or bias.requires_grad,
        parents=(x, w, bias),
    )

    def backward():
        g = out.grad
        _accumulate(bias, g.sum(axis=(0, 1)))
        if w.requires_grad:
            gw = np.zeros_like(w.data)
            g2 = g.reshape(-1, f_c)
            for tap in range(k):
                gw[tap] = shifted[tap].reshape(-1, f_in).T @ g2
            _accumulate(w, gw)
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            if padding == "zero":
                gp = np.zeros((batch, t_len + 2 * half, f_in), dtype=g.dtype)
                for tap in range(k):
                    gp[:, tap : tap + t_len, :] += np.matmul(g, w.data[tap].T)
                gx += gp[:, half : half + t_len, :]
            else:
                for tap in range(k):
                    gx += np.roll(np.matmul(g, w.data[tap].T), tap - half, axis=1)
            _accumulate(x, gx)

    out._backward = backward if out.requires_grad else None
    return out


# -- normalization & attention pieces -------------------------------------


def softmax_lastdim(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, requires_grad=x.requires_grad, parents=(x,))

    def backward():
        g = out.grad
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, y * (g - inner))

    out._backward = backward if out.requires_grad else None
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    if eps <= 0:
        raise ConfigError(f"layer_norm: eps must be positive, got {eps}")
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match feature width {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(
        xhat * gamma.data + beta.data,
        requires_grad=x.requires_grad or gamma.requires_grad or beta.requires_grad,
        parents=(x, gamma, beta),
    )

    def backward():
        g = out.grad
        lead = tuple(range(g.ndim - 1))
        _accumulate(beta, g.sum(axis=lead))
        _accumulate(gamma, (g * xhat).sum(axis=lead))
        if x.requires_grad:
            gi = g * gamma.data
            term = gi - gi.mean(axis=-1, keepdims=True) - xhat * (gi * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, term * inv)

    out._backward = backward if out.requires_grad else None
    return out


# -- lookups and gathers ---------------------------------------------------


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into `table` [V, d]; `ids` is an integer ndarray."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"embedding: ids must be integers, got dtype {ids.dtype}")
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = int(ids.max() if ids.max() >= vocab else ids.min())
        raise IndexError(f"embedding: id {bad} out of range for table of {vocab} rows")
    out = Tensor(table.data[ids], requires_grad=table.requires_grad, parents=(table,))

    def backward():
        g = out.grad.reshape(-1, table.data.shape[1])
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids.ravel(), g)
        _accumulate(table, acc)

    out._backward = backward if out.requires_grad else None
    return out


def gather_bt(x: Tensor, b_idx: np.ndarray, t_idx: np.ndarray) -> Tensor:
    """Select rows x[b_idx[i], t_idx[i], :] from a [B, T, D] tensor."""
    out = Tensor(x.data[b_idx, t_idx], requires_grad=x.requires_grad, parents=(x,))

    def backward():
        acc = np.zeros_like(x.data)
        np.add.at(acc, (b_idx, t_idx), out.grad)
        _accumulate(x, acc)

    out._backward = backward if out.requires_grad else None
    return out


# -- fused losses ----------------------------------------------------------


def cross_entropy_sum(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Summed cross entropy of [M, V] logits against integer targets [M]."""
    targets = np.asarray(targets)
    m, v = logits.data.shape
    if targets.shape != (m,):
        raise ShapeError(f"cross_entropy_sum: targets {targets.shape} do not match logits {logits.data.shape}")
    zmax = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - zmax)
    sums = e.sum(axis=-1, keepdims=True)
    lse = zmax[:, 0] + np.log(sums[:, 0])
    picked = logits.data[np.arange(m), targets]
    out = Tensor((lse - picked).sum(), requires_grad=logits.requires_grad, parents=(logits,))

    def backward():
        probs = e / sums
        probs[np.arange(m), targets] -= 1.0
        _accumulate(logits, probs * float(out.grad))

    out._backward = backward if out.requires_grad else None
    return out


def bce_with_logits_sum(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Summed binary cross entropy; probability = sigmoid(logit), computed stably."""
    y = np.asarray(labels, dtype=logits.data.dtype)
    z = logits.data
    if z.shape != y.shape:
        raise ShapeError(f"bce_with_logits_sum: labels {y.shape} do not match logits {z.shape}")
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(loss.sum(), requires_grad=logits.requires_grad, parents=(logits,))

    def backward():
        _accumulate(logits, (sigmoid(z) - y) * float(out.grad))

    out._backward = backward if out.requires_grad else None
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable logistic function on raw arrays (not a graph op)."""
    z = np.asarray(z)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rng is None or p == 0."""
    if rng is None or p <= 0.0:
        return x
    if p >= 1.0:
        raise ConfigError(f"dropout: rate must be < 1, got {p}")
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return mul(x, Tensor(keep))


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
