"""The gradient-check harness itself: it must flag a wrong gradient and a
nondeterministic function, and report per parameter."""

import numpy as np
import pytest

from gradcheck import finite_difference_check, sum_
from htcinfomax import autodiff as ad
from htcinfomax.autodiff import Tensor


def test_finite_difference_check_flags_wrong_gradient():
    x = Tensor(np.array(2.0), requires_grad=True)

    def wrong():
        # handcrafted op with a deliberately broken backward closure
        out = Tensor(x.data * x.data)
        out.requires_grad = True
        out._parents = (x,)
        out._backward = lambda g: ad._accum(x, g * 3.0)  # truth is 2x = 4.0
        out.op = "broken"
        return out

    report = finite_difference_check(wrong, {"x": x})
    assert not report.passed
    assert "FAIL" in report.summary()


def test_finite_difference_check_rejects_nondeterminism():
    x = Tensor(np.array([1.0]), requires_grad=True)
    rng = np.random.default_rng(20)

    def noisy():
        return sum_(ad.mul(x, float(rng.standard_normal())))

    with pytest.raises(ad.ContractError, match="deterministic"):
        finite_difference_check(noisy, {"x": x})


def test_finite_difference_report_summary_lists_params():
    rng = np.random.default_rng(21)
    a = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    report = finite_difference_check(lambda: sum_(ad.mul(a, a)), {"a": a})
    assert report.passed
    assert "a" in report.max_rel_error
    assert "PASS" in report.summary()
