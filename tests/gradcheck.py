"""Gradient-check harness for the tests: `finite_difference_check` verifies
any composed scalar function against central differences, and `sum_` is the
scalar reduction the checked functions end in.  `conv_reference` is the
plain numpy convolution that the convolution tests compare against."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from htcinfomax.autodiff import ContractError, Tensor, _accum, _check_axis, _make, backward, no_grad


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis)

    def back(g, a=a, axis=axis):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.shape))

    return _make(a.data.sum(axis=axis), (a,), back, "sum")


def conv_reference(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-length 1-D cross-correlation of x [..., S, C_in] with kernel
    [k, C_in, C_out], as a sum of shifted GEMMs over the zero-padded input
    (left pad (k-1)//2, the remainder on the right): [..., S, C_out]."""
    k, seq_len = kernel.shape[0], x.shape[-2]
    left = (k - 1) // 2
    padded = np.zeros(x.shape[:-2] + (seq_len + k - 1, x.shape[-1]))
    padded[..., left:left + seq_len, :] = x
    return sum(padded[..., t:t + seq_len, :] @ kernel[t] for t in range(k))


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
        p.grad = None
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
        p.grad = None
    return report
