"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tensors hold double-precision data plus an optional gradient buffer.  Every
primitive records its inputs and a backward closure as it executes, so a
single `backward()` call on a scalar loss replays the chain rule once over
the dynamically recorded graph.  `finite_difference_check` verifies any
composed scalar function against central differences.

Broadcasting is deliberately restricted: elementwise ops require identical
shapes, except scalar-times-tensor and adding a trailing-axis bias vector.
Everything runs single-threaded; a graph must not be shared across threads
mid-pass.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class DomainError(ValueError):
    """Raised when values fall outside an op's numeric domain."""


class ContractError(RuntimeError):
    """Raised when a caller violates an API precondition."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense n-dimensional float64 array with an optional grad buffer.

    Data is immutable after creation by convention; only `grad` mutates,
    and only during a backward pass.  A parameter is the exception: when
    its registry lays out its arena, `data` is rebound once to a view of
    the arena's flat data vector (same values) and `grad_view` is set to
    its block of the flat gradient vector, where backward writes its
    first gradient.  `grad_view` stays None for every other tensor.
    """

    __slots__ = ("data", "grad", "grad_view", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.grad_view: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.op = "leaf"

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    """Wrap an op result, recording the edge only while grads are enabled."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.grad_view = None
    out.op = op
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = needs
    if needs:
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy: `g` may be shared (add) or a view, and clipping scales in
        # place; a parameter's goes into its arena view, anything else's is owned
        if t.grad_view is None:
            t.grad = np.array(g, dtype=np.float64, order="C")
        else:
            np.copyto(t.grad_view, g)
            t.grad = t.grad_view
    else:
        t.grad += g


# -- graph traversal ---------------------------------------------------------


def topo_order(root: Tensor) -> list[Tensor]:
    """Recorded computation in topological order (inputs before users).

    Each executed op appears exactly once; a backward pass walks this list
    in reverse.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor):
    """Populate `grad` on every tensor that `loss` depends on.

    The loss must be a scalar; each recorded op's backward closure runs
    exactly once.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = topo_order(loss)
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


# -- arithmetic ---------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum.  Accepts same-shape tensors, a python scalar, or a
    trailing-axis bias vector added to every row."""
    if not isinstance(b, Tensor):
        b_val = float(b)

        def back_scalar(g, a=a):
            _accum(a, g)

        return _make(a.data + b_val, (a,), back_scalar, "add_scalar")

    if a.shape == b.shape:

        def back_same(g, a=a, b=b):
            _accum(a, g)
            _accum(b, g)

        return _make(a.data + b.data, (a, b), back_same, "add")

    if b.ndim == 1 and a.ndim >= 2 and a.shape[-1] == b.shape[0]:
        axes = tuple(range(a.ndim - 1))

        def back_bias(g, a=a, b=b, axes=axes):
            _accum(a, g)
            _accum(b, g.sum(axis=axes))

        return _make(a.data + b.data, (a, b), back_bias, "add_bias")

    raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")


def neg(a: Tensor) -> Tensor:
    def back(g, a=a):
        _accum(a, -g)

    return _make(-a.data, (a,), back, "neg")


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product of same-shape tensors, or scalar-times-tensor."""
    if not isinstance(b, Tensor):
        b_val = float(b)

        def back_scalar(g, a=a, b_val=b_val):
            _accum(a, g * b_val)

        return _make(a.data * b_val, (a,), back_scalar, "mul_scalar")

    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} differ")

    def back(g, a=a, b=b):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), back, "mul")


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product a[m,k] @ b[k,n]."""
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")

    def back(g, a=a, b=b):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), back, "matmul")


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product a[B,m,k] @ b[B,k,n]."""
    if a.ndim != 3 or b.ndim != 3:
        raise DimensionError(f"bmm expects 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise DimensionError(f"bmm: incompatible shapes {a.shape} @ {b.shape}")

    def back(g, a=a, b=b):
        if a.requires_grad:
            _accum(a, g @ b.data.swapaxes(1, 2))
        if b.requires_grad:
            _accum(b, a.data.swapaxes(1, 2) @ g)

    return _make(a.data @ b.data, (a, b), back, "bmm")


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def back(g, a=a, inverse=inverse):
        _accum(a, g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), back, "transpose")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def back(g, a=a, old=old):
        _accum(a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), back, "reshape")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; all other extents must agree."""
    parts = list(parts)
    if not parts:
        raise DimensionError("concat of zero parts")
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base):
            raise DimensionError(f"concat: rank mismatch {parts[0].shape} vs {p.shape}")
        for ax, (x, y) in enumerate(zip(base, other)):
            if ax != (axis % len(base)) and x != y:
                raise DimensionError(f"concat: non-concat extents differ: {parts[0].shape} vs {p.shape}")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g, parts=parts, offsets=offsets, axis=axis):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            _accum(p, g[tuple(index)])

    return _make(np.concatenate([p.data for p in parts], axis=axis), parts, back, "concat")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D table; grads scatter-add back into the rows.

    `ids` may be a 1-D or 2-D integer array; output appends the embedding
    axis: ids[..., ] -> out[..., d].
    """
    if table.ndim != 2:
        raise DimensionError(f"embedding_lookup expects a 2-D table, got {table.shape}")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        bad = ids[(ids < 0) | (ids >= table.shape[0])][0]
        raise IndexError(f"embedding id {bad} outside table of {table.shape[0]} rows")

    def back(g, table=table, ids=ids):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.empty_like(table.data) if table.grad_view is None else table.grad_view
            table.grad.fill(0.0)
        np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))

    return _make(table.data[ids], (table,), back, "embedding_lookup")


# -- activations --------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    pos = a.data > 0

    def back(g, a=a, pos=pos):
        _accum(a, g * pos)

    return _make(np.where(pos, a.data, 0.0), (a,), back, "relu")


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    nonneg = x >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-x[nonneg]))
    ex = np.exp(x[~nonneg])
    out[~nonneg] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_np(a.data)

    def back(g, a=a, s=s):
        _accum(a, g * s * (1.0 - s))

    return _make(s, (a,), back, "sigmoid")


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed without overflow."""
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    s = _sigmoid_np(a.data)

    def back(g, a=a, s=s):
        _accum(a, g * s)

    return _make(out, (a,), back, "softplus")


def logsigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) = -softplus(-x); safe for any logit magnitude."""
    out = np.minimum(a.data, 0.0) - np.log1p(np.exp(-np.abs(a.data)))
    s = _sigmoid_np(-a.data)

    def back(g, a=a, s=s):
        _accum(a, g * s)

    return _make(out, (a,), back, "logsigmoid")


def masked_softmax(a: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over the unmasked slots of `axis`; exactly 0 where mask is 0.

    `mask` is a constant 0/1 array broadcastable to `a`; fully masked
    slices produce all-zero output rather than NaN.
    """
    m = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    neg_inf = np.where(m, a.data, -np.inf)
    high = neg_inf.max(axis=axis, keepdims=True)
    high = np.where(np.isfinite(high), high, 0.0)
    e = np.where(m, np.exp(neg_inf - high), 0.0)
    denom = e.sum(axis=axis, keepdims=True)
    p = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)

    def back(g, a=a, p=p, axis=axis):
        inner = (g * p).sum(axis=axis, keepdims=True)
        _accum(a, p * (g - inner))

    return _make(p, (a,), back, "masked_softmax")


# -- reductions and masking ----------------------------------------------------


def _check_axis(a: Tensor, axis):
    if axis is not None and not (-a.ndim <= axis < a.ndim):
        raise DimensionError(f"axis {axis} invalid for shape {a.shape}")


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis)

    def back(g, a=a, axis=axis):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.shape))

    return _make(a.data.sum(axis=axis), (a,), back, "sum")


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis)
    n = a.data.size if axis is None else a.shape[axis]

    def back(g, a=a, axis=axis, n=n):
        if axis is None:
            _accum(a, np.broadcast_to(g / n, a.shape))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis) / n, a.shape))

    return _make(a.data.mean(axis=axis), (a,), back, "mean")


def apply_mask(a: Tensor, mask: np.ndarray) -> Tensor:
    """Zero out masked positions: a[b,s,:] * mask[b,s]."""
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != a.shape[: m.ndim]:
        raise DimensionError(f"mask shape {m.shape} does not prefix tensor shape {a.shape}")
    mexp = m.reshape(m.shape + (1,) * (a.ndim - m.ndim))

    def back(g, a=a, mexp=mexp):
        _accum(a, g * mexp)

    return _make(a.data * mexp, (a,), back, "apply_mask")


def masked_mean(a: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of a[B,S,d] over axis 1 counting only mask==1 positions."""
    if a.ndim != 3:
        raise DimensionError(f"masked_mean expects a 3-D tensor, got {a.shape}")
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != a.shape[:2]:
        raise DimensionError(f"mask shape {m.shape} does not match {a.shape[:2]}")
    counts = m.sum(axis=1)
    if np.any(counts == 0):
        raise DomainError("masked_mean over a fully masked sequence")
    weights = m / counts[:, None]

    def back(g, a=a, weights=weights):
        _accum(a, g[:, None, :] * weights[:, :, None])

    return _make(np.einsum("bs,bsd->bd", weights, a.data), (a,), back, "masked_mean")


# -- convolution ---------------------------------------------------------------


def conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Same-length 1-D cross-correlation over the sequence axis.

    x is [S, C_in] or [B, S, C_in]; kernel is [k, C_in, C_out].  Zero
    padding keeps the output length equal to S (left pad (k-1)//2, the
    remainder on the right, so even kernel widths are allowed).
    """
    if kernel.ndim != 3:
        raise DimensionError(f"conv1d kernel must be [k, C_in, C_out], got {kernel.shape}")
    if x.ndim not in (2, 3):
        raise DimensionError(f"conv1d input must be 2-D or 3-D, got {x.shape}")
    batch, seq_len, c_in = (1,) * (3 - x.ndim) + x.shape
    k, kc_in, c_out = kernel.shape
    if seq_len < 1:
        raise DomainError("conv1d over an empty sequence")
    if kc_in != c_in:
        raise DimensionError(f"conv1d channel mismatch: input {x.shape} vs kernel {kernel.shape}")

    # One GEMM gives every tap's response at every position, y[:, j, t] =
    # x[:, j] @ kernel[t]; output row s adds y[:, s + d, t] for each tap t
    # (d = t - left) whose source row is inside the sequence: rows lo..hi-1.
    left = (k - 1) // 2
    spans = [(t, t - left, max(0, left - t), max(0, left - t, min(seq_len, seq_len + left - t)))
             for t in range(k)]
    w = kernel.data.transpose(1, 0, 2).reshape(c_in, k * c_out)
    x_flat = x.data.reshape(batch * seq_len, c_in)
    y = (x_flat @ w).reshape(batch, seq_len, k, c_out)
    out = y[:, :, left].copy()
    for t, d, lo, hi in spans:
        if t != left:
            out[:, lo:hi] += y[:, lo + d : hi + d, t]
    out = out.reshape(x.shape[:-1] + (c_out,))

    def back(g, x=x, kernel=kernel, x_flat=x_flat, w=w, spans=spans):
        # the same shifts in reverse: gy[:, s + d, t] = g[:, s], zero elsewhere
        g3 = g.reshape(batch, seq_len, c_out)
        gy = np.empty((batch, seq_len, k, c_out))
        for t, d, lo, hi in spans:
            gy[:, : lo + d, t] = 0.0
            gy[:, lo + d : hi + d, t] = g3[:, lo:hi]
            gy[:, hi + d :, t] = 0.0
        gy = gy.reshape(batch * seq_len, k * c_out)
        if kernel.requires_grad:
            _accum(kernel, (x_flat.T @ gy).reshape(c_in, k, c_out).transpose(1, 0, 2))
        if x.requires_grad:
            _accum(x, (gy @ w.T).reshape(x.shape))

    return _make(out, (x, kernel), back, "conv1d")


# -- adversarial routing --------------------------------------------------------


def grad_reverse(a: Tensor) -> Tensor:
    """Identity forward; backward negates the gradient.

    Placing this between an encoder output and a discriminator implements
    the minimax objective in one pass: the discriminator descends the loss
    while the encoder ascends it.
    """

    def back(g, a=a):
        _accum(a, -g)

    return _make(a.data, (a,), back, "grad_reverse")


# -- verification harness ---------------------------------------------------------


@dataclass
class FiniteDifferenceReport:
    """Per-parameter comparison of analytic vs central-difference gradients."""

    max_rel_error: dict[str, float] = field(default_factory=dict)
    tol: float = 1e-4
    h: float = 1e-5

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.max_rel_error.values())

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)

    def summary(self) -> str:
        lines = [
            f"  {name}: max rel err {err:.3e} {'ok' if err <= self.tol else 'FAIL'}"
            for name, err in self.max_rel_error.items()
        ]
        verdict = "PASS" if self.passed else "FAIL"
        return f"finite-difference check ({verdict}, tol={self.tol:g}, h={self.h:g})\n" + "\n".join(lines)


def finite_difference_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor] | Iterable[tuple[str, Tensor]],
    h: float = 1e-5,
    tol: float = 1e-4,
    floor: float = 1e-4,
) -> FiniteDifferenceReport:
    """Compare analytic gradients of the scalar `f()` against central differences.

    `f` must be deterministic (verified by evaluating it twice) and must
    rebuild its graph from the live `params` tensors on every call.  The
    relative error denominator is floored at `floor` so that near-zero
    gradients are judged by a matching absolute scale.
    """
    if isinstance(params, dict):
        items = list(params.items())
    else:
        items = list(params)
    if h <= 0:
        raise ContractError("finite_difference_check requires h > 0")

    with no_grad():
        first = f().item()
        second = f().item()
    if first != second:
        raise ContractError("f is not deterministic: two forward passes disagree")

    for _, p in items:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for name, p in items}

    report = FiniteDifferenceReport(tol=tol, h=h)
    for name, p in items:
        flat = p.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                up = f().item()
                flat[i] = orig - h
                down = f().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic[name].reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            worst = max(worst, rel)
        report.max_rel_error[name] = worst
    for _, p in items:
        p.zero_grad()
    return report
