"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tensors hold double-precision data plus an optional gradient buffer.  Every
primitive records its inputs and a backward closure as it executes, so a
single `backward()` call on a scalar loss replays the chain rule once over
the dynamically recorded graph.

Broadcasting is deliberately restricted: elementwise ops require identical
shapes, except scalar-times-tensor; a trailing-axis bias vector is an
operand of `matmul` and of each `token_conv` branch.  Everything runs
single-threaded; a graph must not be shared across threads mid-pass.

Gradient ownership: a parameter's first gradient is copied into its arena
block, any other leaf's into an array of its own.  An op output keeps the
first one it is handed, which may be shared, a view or read-only; so no
closure writes into its `g`, and a later contribution is summed in place
only into an arena block (elsewhere `grad = grad + g`).  `backward`
releases each op output once its closure has run, so after the pass only
leaves hold gradients, and the graph cannot be differentiated twice.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

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


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    """Wrap an op result, recording the edge only while grads are enabled."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.grad_view = None
    out.op = op
    needs = False
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                needs = True
                break
    out.requires_grad = needs
    if needs:
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray):
    """Add `g` to `t.grad` under the ownership rule in the module docstring."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if t.grad_view is not None:
            np.copyto(t.grad_view, g)
            t.grad = t.grad_view
        elif t._backward is None:
            t.grad = np.array(g, dtype=np.float64, order="C")
        else:
            t.grad = g
    elif t.grad is t.grad_view:
        t.grad += g
    else:
        t.grad = t.grad + g


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


def _released(g):
    raise ContractError("backward reached an op output that an earlier backward released; "
                        "record the graph again to differentiate it again")


def backward(loss: Tensor):
    """Fill `grad` on every leaf that `loss` depends on.

    The loss must be a scalar; each recorded op's backward closure runs
    exactly once.  Each op output is released as soon as its closure has
    run: its `grad` and `_parents` are dropped, so the step's activations
    and their gradients are freed as the pass walks back, and a later
    backward that reaches it raises ContractError.  Leaves, parameters
    included, keep their gradients.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = topo_order(loss)
    loss.grad = np.ones((), dtype=np.float64)
    while tape:
        node = tape.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _released


# -- arithmetic ---------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum of same-shape tensors, or tensor plus a python scalar."""
    if not isinstance(b, Tensor):
        b_val = float(b)

        def back_scalar(g, a=a):
            _accum(a, g)

        return _make(a.data + b_val, (a,), back_scalar, "add_scalar")

    if a.shape != b.shape:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def back(g, a=a, b=b):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), back, "add")


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


def _add_bias(out: np.ndarray, bias: Tensor | None, op: str) -> tuple[Tensor, ...]:
    """Add a trailing-axis bias vector in place into a fresh product; returns
    the extra parent it makes (none without a bias)."""
    if bias is None:
        return ()
    if bias.shape != out.shape[-1:]:
        raise DimensionError(f"{op}: bias {bias.shape} does not match output {out.shape}")
    out += bias.data
    return (bias,)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Standard 2-D matrix product a[m,k] @ b[k,n], plus bias[n] on every row."""
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    with_bias = _add_bias(out, bias, "matmul")

    def back(g, a=a, b=b, bias=bias):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)
        if bias is not None:
            _accum(bias, g.sum(axis=0))

    return _make(out, (a, b) + with_bias, back, "matmul")


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
    out = a.data.transpose(axes)        # numpy names a repeated or out-of-range axis
    inverse = tuple(axes.index(i) for i in range(len(axes)))

    def back(g, a=a, inverse=inverse):
        _accum(a, g.transpose(inverse))

    return _make(out, (a,), back, "transpose")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def back(g, a=a, old=old):
        _accum(a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), back, "reshape")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; all other extents must agree."""
    parts = tuple(parts)
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as err:       # no parts, a rank or extent mismatch, a bad axis
        raise DimensionError(f"concat of {[p.shape for p in parts]} on axis {axis}: {err}") from None
    lead, lo, slices = (slice(None),) * (axis % out.ndim), 0, []
    for p in parts:
        slices.append(lead + (slice(lo, lo + p.shape[axis]),))
        lo += p.shape[axis]

    def back(g, parts=parts, slices=slices):
        for p, index in zip(parts, slices):
            _accum(p, g[index])

    return _make(out, parts, back, "concat")


def _check_ids(ids: np.ndarray, rows: int):
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        bad = ids[(ids < 0) | (ids >= rows)][0]
        raise IndexError(f"embedding id {bad} outside table of {rows} rows")


def _row_grad(table: Tensor) -> np.ndarray:
    """`table.grad`, made (zeroed) or copied first where needed, so row-wise
    contributions can add into it in place."""
    grad = table.grad
    if grad is None:
        grad = np.empty_like(table.data) if table.grad_view is None else table.grad_view
        grad.fill(0.0)
    elif grad is not table.grad_view:
        grad = grad.copy()      # not ours to write into (module docstring)
    table.grad = grad
    return grad


# -- activations --------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    """max(x, 0); a NaN stays NaN (so a finiteness check downstream sees it)
    and gets zero gradient."""

    def back(g, a=a):
        _accum(a, g * (a.data > 0))

    return _make(np.maximum(a.data, 0.0), (a,), back, "relu")


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))      # e^-x where x >= 0, e^x elsewhere: never overflows
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


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
    slices produce all-zero output rather than NaN.  A NaN score makes its
    slice NaN (so a finiteness check downstream sees it).
    """
    m = np.asarray(mask, dtype=bool)
    neg_inf = np.where(m, a.data, -np.inf)
    if neg_inf.shape != a.shape:
        raise DimensionError(f"masked_softmax: mask {m.shape} does not broadcast to {a.shape}")
    high = neg_inf.max(axis=axis, keepdims=True)
    high[~np.isfinite(high)] = 0.0
    p = np.exp(neg_inf - high)          # exactly 0 where masked: the shift is finite
    denom = p.sum(axis=axis, keepdims=True)
    denom[denom == 0.0] = np.inf        # a fully masked slice: 0 / inf = 0
    p /= denom

    def back(g, a=a, p=p, axis=axis):
        inner = (g * p).sum(axis=axis, keepdims=True)
        _accum(a, p * (g - inner))

    return _make(p, (a,), back, "masked_softmax")


# -- reductions and masking ----------------------------------------------------


def _check_axis(a: Tensor, axis):
    if axis is not None and not (-a.ndim <= axis < a.ndim):
        raise DimensionError(f"axis {axis} invalid for shape {a.shape}")


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis)
    n = a.data.size if axis is None else a.shape[axis]
    kept = [1] * a.ndim if axis is None else list(a.shape)     # the keepdims shape
    if axis is not None:
        kept[axis] = 1

    def back(g, a=a, kept=kept, n=n):
        _accum(a, np.broadcast_to(g.reshape(kept) / n, a.shape))

    return _make(a.data.mean(axis=axis), (a,), back, "mean")


def _mean_weights(mask: np.ndarray) -> np.ndarray:
    """[B, S] weights that average each sequence over its unmasked positions."""
    m = np.asarray(mask, dtype=np.float64)
    counts = m.sum(axis=1)
    if np.any(counts == 0):
        raise DomainError("mean pooling over a fully masked sequence")
    return m / counts[:, None]


def masked_mean(a: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of a[B,S,d] over axis 1 counting only mask==1 positions."""
    if a.ndim != 3:
        raise DimensionError(f"masked_mean expects a 3-D tensor, got {a.shape}")
    if np.shape(mask) != a.shape[:2]:
        raise DimensionError(f"mask shape {np.shape(mask)} does not match {a.shape[:2]}")
    weights = _mean_weights(mask)

    def back(g, a=a, weights=weights):
        _accum(a, g[:, None, :] * weights[:, :, None])

    return _make(np.einsum("bs,bsd->bd", weights, a.data), (a,), back, "masked_mean")


# -- convolution ---------------------------------------------------------------


def _tap_spans(k: int, seq_len: int) -> list[tuple[int, int, int, int]]:
    """(t, d, lo, hi) for each tap t of a width-k same-length convolution:
    output rows lo..hi-1 read source rows lo+d..hi+d-1, where d = t - left;
    the tap's other sources lie in the zero padding."""
    left = (k - 1) // 2
    return [(t, t - left, max(0, left - t), max(0, left - t, min(seq_len, seq_len + left - t)))
            for t in range(k)]


def _sum_taps(out: np.ndarray, scratch: np.ndarray, taps, pos: np.ndarray):
    """out[b, s] = the sum over the k taps t of row pos[b, s + t - left] of
    taps[t], a [rows, C_out] block, left = (k - 1) // 2: the centre tap
    first, then the others in ascending t.  A source outside the sequence
    reads the blocks' last row, all -0.0, which adds exactly nothing
    (x + -0.0 is x for every float x), so each tap adds over whole
    contiguous buffers: `out` and `scratch` are [B, S, C_out].  pos is
    checked, so "clip" only spares `take` the copy of `out` that it makes
    under the default "raise"."""
    k = len(taps)
    left = (k - 1) // 2
    batch, seq_len = pos.shape
    source = np.full((batch, seq_len + k - 1), taps[0].shape[0] - 1)
    source[:, left:left + seq_len] = pos
    np.take(taps[left], pos, axis=0, out=out, mode="clip")
    for t in range(k):
        if t != left:
            np.take(taps[t], source[:, t:t + seq_len], axis=0, out=scratch, mode="clip")
            out += scratch


def _shift_taps(out: np.ndarray, table: np.ndarray, spans):
    """out[b, s] = the sum over the k taps t of block t of table[b, s + t -
    left], table [B, S, k*C_out] and out [B, S, C_out], in `_sum_taps`'
    order: the centre tap first, then the others in ascending t, each added
    as one shifted slice over the output rows its span reads inside the
    sequence (a source outside it would add -0.0, exactly nothing)."""
    c_out, left = out.shape[2], (len(spans) - 1) // 2
    np.copyto(out, table[:, :, left * c_out:(left + 1) * c_out])
    for t, d, lo, hi in spans:
        if t != left:
            out[:, lo:hi] += table[:, lo + d:hi + d, t * c_out:(t + 1) * c_out]


def _tap_grads(g: np.ndarray, branches, width: int) -> np.ndarray:
    """The adjoint of `_shift_taps` over `token_conv`'s branches: their
    output gradient g laid out per position, [B*S, width], as the
    `token_conv` docstring describes."""
    batch, seq_len, _ = g.shape
    dy = np.empty((batch, seq_len, width))
    for kernel, _, cols, chans, spans in branches:
        c_out = kernel.shape[2]
        for t, d, lo, hi in spans:      # output rows lo..hi-1 read lo+d..hi+d-1 (lo+d >= 0)
            block = dy[:, :, cols.start + t * c_out:cols.start + (t + 1) * c_out]
            block[:, :lo + d] = 0.0
            block[:, lo + d:hi + d] = g[:, lo:hi, chans]
            block[:, hi + d:] = 0.0
    return dy.reshape(batch * seq_len, width)


def _check_taps(embedding: Tensor, kernels: Sequence[Tensor]) -> tuple[int, int]:
    """Check the table and kernel shapes; returns (sum of k, the C_out that
    every kernel shares)."""
    if embedding.ndim != 2:
        raise DimensionError(f"token_conv expects a 2-D embedding table, got {embedding.shape}")
    c_in = embedding.shape[1]
    if not kernels or any(k.ndim != 3 or k.shape[1] != c_in for k in kernels):
        raise DimensionError(f"token_conv kernels {[k.shape for k in kernels]} must be a non-empty "
                             f"list of [k, {c_in}, C_out]")
    if len({k.shape[2] for k in kernels}) > 1:
        raise DimensionError(f"token_conv kernels {[k.shape for k in kernels]} must share one C_out")
    return sum(k.shape[0] for k in kernels), kernels[0].shape[2]


def _stacked_taps(kernels: Sequence[Tensor]) -> np.ndarray:
    """Every (checked) kernel [k, C_in, C_out] laid out as [C_in, k*C_out],
    tap by tap, side by side: [C_in, sum of k*C_out]."""
    return np.concatenate([k.data.transpose(1, 0, 2).reshape(k.shape[1], k.shape[0] * k.shape[2])
                           for k in kernels], axis=1)


def _tap_table(x: np.ndarray, w: np.ndarray, c_out: int) -> np.ndarray:
    """x @ w laid out tap-major, [sum of k, rows + 2, C_out], block t of
    kernel j at index (sum of the earlier kernels' k) + t, over two rows of
    zeros: +0.0, which masked positions read, then -0.0, which sources
    outside the sequence read (`_sum_taps`).  Each tap's gather then reads
    contiguous rows."""
    rows, taps = x.shape[0], w.shape[1] // c_out
    table = np.empty((taps, rows + 2, c_out))
    table[:, :rows] = (x @ w).reshape(rows, taps, c_out).transpose(1, 0, 2)
    table[:, rows] = 0.0
    table[:, rows + 1] = -0.0
    return table


def token_responses(embedding: Tensor, kernels: Sequence[Tensor]) -> np.ndarray:
    """`token_conv`'s response table over every embedding row (`_tap_table`).

    A constant of the current parameters: inference computes it once for
    many batches, and it is stale after they change.
    """
    _, c_out = _check_taps(embedding, kernels)
    return _tap_table(embedding.data, _stacked_taps(kernels), c_out)


def _occurrence_rounds(pos: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices i with pos[i] < n, in rounds within which no value of pos
    repeats: round j holds each value's (j+1)-th occurrence, in value order.
    Returns the indices round after round, and each round's size."""
    order = np.argsort(pos, kind="stable")[:np.count_nonzero(pos < n)]
    ranked = pos[order]
    first = np.ones(order.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    at = np.arange(order.size)
    rank = at - np.maximum.accumulate(np.where(first, at, 0))
    return order[np.argsort(rank, kind="stable")], np.bincount(rank)


def token_conv(embedding: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor],
               ids, mask, responses: np.ndarray | None = None) -> Tensor:
    """Parallel same-length convolutions, each plus its bias, over the table
    rows that the unmasked positions read, concatenated on the channel axis;
    zero, and passing no gradient, at the masked positions.

    `embedding` is any [R, C_in] table.  With `ids` [B, S], position s of
    sequence b reads row ids[b, s] (the vocabulary embedding and the token
    ids).  With ids None the rows are the positions: row b*S + s is
    position (b, s) and R = B*S (a batch's features flattened to
    [B*S, C_in]).  mask is [B, S]: a position holds its row where mask[b,
    s] is nonzero and a zero vector elsewhere, as does the padding outside
    the sequence.  A branch's output at s is its bias plus, for each tap t
    of its [k, C_in, C_out] kernel, tap t applied to the vector at
    s + t - left, left = (k - 1) // 2; the output is [B, S, sum of C_out].

    It is computed from a response table: with W every kernel laid out as
    [C_in, k*C_out] side by side, R = E[rows] @ W projects each row once,
    and the output at s adds block t of the response read at s + t - left.
    Each branch sums its taps in a contiguous [B, S, C_out] buffer, the
    centre tap first, then the others in ascending t, then adds its bias on
    the way into its channels of the output.  Every kernel shares one
    C_out.  With ids None and no position masked, R is E @ W in place,
    [B, S, k*C_out], and each tap adds a shifted slice of it
    (`_shift_taps`).  Otherwise the rows are the distinct ids at unmasked
    positions (a padded batch of positions reads them as ids, arange(B*S)
    as [B, S]), R is laid out tap-major (`_tap_table`), and each tap is
    gathered (`_sum_taps`).  `responses` (`token_responses`, read by ids
    only) is that table over every row, so the responses a batch reads do
    not depend on the other tokens of its batch; it is a constant, so the
    output then records no graph, whatever the grad mode.

    The backward lays the output gradient out per position, [B, S, sum of
    k*C_out]: block t of a branch at s is the gradient of the output at
    s - t + left, zero where that lies outside the sequence (`_tap_grads`).
    With the positions in place that is dR, the table's gradient; with ids
    it is summed per distinct row in `_occurrence_rounds`.
    """
    valid = np.asarray(mask) != 0
    if ids is not None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != valid.shape:
            raise DimensionError(f"token_conv: ids {ids.shape} and mask {valid.shape} must share one [B, S]")
    elif responses is not None:
        raise ContractError("token_conv: a response table is read through ids, not with ids=None")
    if valid.ndim != 2:
        raise DimensionError(f"token_conv: mask {valid.shape} must be [B, S]")
    batch, seq_len = valid.shape
    if seq_len < 1:
        raise DomainError("token_conv over an empty sequence")
    taps, c_out = _check_taps(embedding, kernels)
    width = taps * c_out
    if len(biases) != len(kernels) or any(b.shape != k.shape[2:] for k, b in zip(kernels, biases)):
        raise DimensionError(f"token_conv: biases {[b.shape for b in biases]} do not match "
                             f"kernels {[k.shape for k in kernels]}")
    vocab = embedding.shape[0]
    if ids is not None:
        _check_ids(ids, vocab)
    elif vocab != batch * seq_len:
        raise DimensionError(f"token_conv: {vocab} table rows are not the {batch}x{seq_len} "
                             f"positions of mask {valid.shape}")
    padded = not valid.all()
    if ids is None and padded:      # gathered like ids: the unmasked positions only
        ids = np.arange(batch * seq_len).reshape(batch, seq_len)
    parents = (embedding, *kernels, *biases)
    if responses is not None:
        if responses.shape != (taps, vocab + 2, c_out):
            raise DimensionError(f"token_conv: responses {responses.shape} do not cover "
                                 f"{taps} taps of {vocab} rows and {c_out} channels")
        blocks, pos, parents = responses, np.where(valid, ids, vocab), ()
    elif ids is None:
        x, w = embedding.data, _stacked_taps(kernels)
        table = (x @ w).reshape(batch, seq_len, width)
    else:
        rows, inverse = np.unique(ids[valid], return_inverse=True)
        x, w = embedding.data[rows], _stacked_taps(kernels)
        blocks = _tap_table(x, w, c_out)
        pos = np.full(ids.shape, rows.size)
        pos[valid] = inverse
    branches = []       # (kernel, bias, its table columns, its output channels, tap spans)
    col = chan = 0
    for kernel, bias in zip(kernels, biases):
        k = kernel.shape[0]
        branches.append((kernel, bias, slice(col, col + k * c_out), slice(chan, chan + c_out),
                         _tap_spans(k, seq_len)))
        col, chan = col + k * c_out, chan + c_out
    out = np.empty((batch, seq_len, chan))       # one branch (the MI conv1) sums in it
    acc = out if len(branches) == 1 else np.empty((batch, seq_len, c_out))
    if ids is not None:
        scratch = np.empty((batch, seq_len, c_out))
    for kernel, bias, cols, chans, spans in branches:
        if ids is None:
            _shift_taps(acc, table[:, :, cols], spans)
        else:
            _sum_taps(acc, scratch, blocks[cols.start // c_out:cols.stop // c_out], pos)
        np.add(acc, bias.data, out=out[:, :, chans])
    if padded:          # times 1.0 would change nothing
        out *= valid[..., None]

    def back(g):        # recorded only without `responses`, where x and w are bound
        gm = g * valid[..., None] if padded else g
        for kernel, bias, cols, chans, spans in branches:
            _accum(bias, gm[:, :, chans].sum(axis=(0, 1)))
        dy = _tap_grads(gm, branches, width)
        if ids is None:
            dr = dy
        else:
            # sum per distinct row, in rounds that each write distinct rows:
            # one gradient row per unmasked position, round after round; the
            # first round holds every row once, in row order, so it is dR
            flat = pos.reshape(-1)
            at, sizes = _occurrence_rounds(flat, rows.size)
            dr, lo = dy[at[:rows.size]], rows.size
            for n in sizes[1:]:
                dr[flat[at[lo:lo + n]]] += dy[at[lo:lo + n]]
                lo += n
        del gm, dy      # a gathered dr is all that the GEMMs read
        if any(kernel.requires_grad for kernel, *_ in branches):
            dw = x.T @ dr
            for kernel, _, cols, _, _ in branches:
                k, c_in, _ = kernel.shape
                _accum(kernel, dw[:, cols].reshape(c_in, k, c_out).transpose(1, 0, 2))
        if embedding.requires_grad:
            if ids is None:
                _accum(embedding, dr @ w.T)
            else:
                _row_grad(embedding)[rows] += dr @ w.T

    return _make(out, parents, back, "token_conv")


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

