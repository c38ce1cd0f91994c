"""Autodiff engine: forward oracles, gradient checks, and graph mechanics."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htcinfomax import autodiff as ad
from htcinfomax.autodiff import Tensor


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def fd(f, params, tol=1e-4):
    report = ad.finite_difference_check(f, params, tol=tol)
    assert report.passed, report.summary()


# -- forward values against numpy ------------------------------------------------


def test_add_mul_match_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        assert np.allclose(ad.add(Tensor(a), Tensor(b)).data, a + b)
        assert np.allclose(ad.mul(Tensor(a), Tensor(b)).data, a * b)
        assert np.allclose(ad.mul(Tensor(a), 2.5).data, a * 2.5)


def test_row_bias_add_broadcasts_trailing_axis():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 5, 3))
    bias = rng.standard_normal(3)
    out = ad.add(Tensor(a), Tensor(bias))
    assert np.allclose(out.data, a + bias)


def test_add_rejects_mismatched_shapes():
    with pytest.raises(ad.DimensionError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ad.DimensionError):
        ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1))))


def test_matmul_shapes_and_errors():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    assert np.allclose(ad.matmul(Tensor(a), Tensor(b)).data, a @ b)
    with pytest.raises(ad.DimensionError, match="inner dimensions"):
        ad.matmul(Tensor(a), Tensor(a))
    with pytest.raises(ad.DimensionError, match="2-D"):
        ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(b))


def test_bmm_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 2, 3))
    b = rng.standard_normal((4, 3, 5))
    assert np.allclose(ad.bmm(Tensor(a), Tensor(b)).data, a @ b)


def test_softmax_rows_sum_to_one():
    # with nothing masked, masked_softmax is the plain row softmax
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 9)) * 10
    out = ad.masked_softmax(Tensor(x), np.ones((6, 9)), axis=1).data
    assert np.allclose(out.sum(axis=1), 1.0)
    expected = np.exp(x - x.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    assert np.allclose(out, expected)


def test_masked_softmax_zeroes_masked_slots():
    x = Tensor(np.array([[1.0, 2.0, 3.0], [5.0, 1.0, 0.0]]))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    out = ad.masked_softmax(x, mask, axis=1).data
    assert out[0, 2] == 0.0
    assert np.allclose(out.sum(axis=1), 1.0)
    # surviving entries renormalize over the valid slots only
    e = np.exp([1.0, 2.0])
    assert np.allclose(out[0, :2], e / e.sum())


def test_logsigmoid_is_stable_at_extremes():
    x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
    out = ad.logsigmoid(x).data
    assert np.isfinite(out).all()
    assert out[1] == pytest.approx(np.log(0.5))
    assert out[0] == pytest.approx(-1000.0)
    assert out[2] == pytest.approx(0.0, abs=1e-12)


def test_reductions_match_numpy():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4, 5))
    assert np.allclose(ad.sum_(Tensor(x)).data, x.sum())
    assert np.allclose(ad.sum_(Tensor(x), axis=1).data, x.sum(axis=1))
    assert np.allclose(ad.mean(Tensor(x), axis=0).data, x.mean(axis=0))


def test_conv1d_matches_explicit_sliding_window():
    rng = np.random.default_rng(6)
    for k in (2, 3, 4):
        x = rng.standard_normal((5, 3))
        kern = rng.standard_normal((k, 3, 2))
        out = ad.conv1d(Tensor(x), Tensor(kern)).data
        assert out.shape == (5, 2)
        left = (k - 1) // 2
        padded = np.zeros((5 + k - 1, 3))
        padded[left:left + 5] = x
        expected = np.zeros((5, 2))
        for s in range(5):
            window = padded[s:s + k]          # [k, C_in]
            expected[s] = np.einsum("kc,kco->o", window, kern)
        assert np.allclose(out, expected)


def test_conv1d_batched_equals_per_sequence():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 6, 4))
    kern = rng.standard_normal((3, 4, 5))
    batched = ad.conv1d(Tensor(x), Tensor(kern)).data
    for b in range(3):
        single = ad.conv1d(Tensor(x[b]), Tensor(kern)).data
        assert np.allclose(batched[b], single)


def test_conv1d_errors():
    with pytest.raises(ad.DomainError):
        ad.conv1d(Tensor(np.zeros((0, 3))), Tensor(np.zeros((3, 3, 2))))
    with pytest.raises(ad.DimensionError):
        ad.conv1d(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 5, 2))))


def test_embedding_lookup_and_bounds():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    out = ad.embedding_lookup(table, np.array([[0, 3], [1, 1]]))
    assert np.allclose(out.data[0, 1], table.data[3])
    with pytest.raises(IndexError):
        ad.embedding_lookup(table, np.array([4]))


def test_masked_mean_oracle_and_empty_row():
    x = Tensor(np.arange(24.0).reshape(2, 4, 3))
    mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    out = ad.masked_mean(x, mask).data
    assert np.allclose(out[0], x.data[0, :2].mean(axis=0))
    assert np.allclose(out[1], x.data[1].mean(axis=0))
    with pytest.raises(ad.DomainError):
        ad.masked_mean(x, np.zeros((2, 4)))


# -- gradients against central differences ---------------------------------------


def test_grad_add_mul_chain():
    rng = np.random.default_rng(10)
    a, b = rand(rng, 3, 4), rand(rng, 3, 4)

    def f():
        return ad.sum_(ad.mul(ad.add(a, b), ad.add(a, 2.0)))

    fd(f, {"a": a, "b": b})


def test_grad_matmul_bias():
    rng = np.random.default_rng(11)
    x, w = rand(rng, 4, 3), rand(rng, 3, 5)
    bias = rand(rng, 5)

    def f():
        return ad.sum_(ad.sigmoid(ad.add(ad.matmul(x, w), bias)))

    fd(f, {"x": x, "w": w, "bias": bias})


def test_grad_bmm_transpose_reshape():
    rng = np.random.default_rng(12)
    a, b = rand(rng, 2, 3, 4), rand(rng, 2, 4, 2)

    def f():
        out = ad.bmm(a, b)
        out = ad.transpose(out, (0, 2, 1))
        return ad.sum_(ad.mul(ad.reshape(out, (12,)), ad.reshape(out, (12,))))

    fd(f, {"a": a, "b": b})


@pytest.mark.parametrize("op", [ad.relu, ad.sigmoid, ad.softplus, ad.logsigmoid])
def test_grad_elementwise_ops(op):
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((4, 4)) + 0.3, requires_grad=True)

    def f():
        return ad.sum_(op(x))

    fd(f, {"x": x})


def test_grad_softmax_and_masked_softmax():
    rng = np.random.default_rng(15)
    x = rand(rng, 3, 5)
    target = rng.standard_normal((3, 5))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [0, 1, 0, 1, 1]], dtype=np.float64)

    def f_plain():
        return ad.sum_(ad.mul(ad.masked_softmax(x, np.ones((3, 5)), axis=1), Tensor(target)))

    def f_masked():
        return ad.sum_(ad.mul(ad.masked_softmax(x, mask, axis=1), Tensor(target)))

    fd(f_plain, {"x": x})
    fd(f_masked, {"x": x})


def test_grad_reductions():
    rng = np.random.default_rng(16)
    x = rand(rng, 3, 4)

    def f_mean():
        return ad.mean(ad.mul(x, x))

    def f_axis():
        return ad.sum_(ad.mean(x, axis=1))

    fd(f_mean, {"x": x})
    fd(f_axis, {"x": x})


def test_grad_conv1d_all_kernels():
    rng = np.random.default_rng(17)
    for k in (2, 3, 4):
        x = rand(rng, 2, 5, 3)
        kern = rand(rng, k, 3, 2)
        weights = rng.standard_normal((2, 5, 2))

        def f():
            return ad.sum_(ad.mul(ad.conv1d(x, kern), Tensor(weights)))

        fd(f, {"x": x, "kern": kern})


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "2d"])
@pytest.mark.parametrize("k", range(1, 8))
def test_conv1d_oracle_over_widths_and_lengths(k, batched):
    # lengths 1-9 include sequences shorter than a tap's reach (S=2, k=7),
    # where that tap's valid span is empty
    rng = np.random.default_rng(100 + k)
    left = (k - 1) // 2
    for seq_len in range(1, 10):
        shape = (2, seq_len, 3) if batched else (seq_len, 3)
        x, kern = rand(rng, *shape), rand(rng, k, 3, 2)
        padded = np.zeros(shape[:-2] + (seq_len + k - 1, 3))
        padded[..., left:left + seq_len, :] = x.data
        expected = sum(padded[..., t:t + seq_len, :] @ kern.data[t] for t in range(k))
        out = ad.conv1d(x, kern).data
        assert out.shape == shape[:-1] + (2,)
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)
        weights = Tensor(rng.standard_normal(out.shape))
        fd(lambda: ad.sum_(ad.mul(ad.conv1d(x, kern), weights)), {"x": x, "kern": kern})


def test_grad_embedding_accumulates_repeated_ids():
    table = Tensor(np.ones((3, 2)), requires_grad=True)
    ids = np.array([0, 0, 2])
    out = ad.sum_(ad.embedding_lookup(table, ids))
    ad.backward(out)
    assert np.allclose(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_grad_masked_mean_and_apply_mask():
    rng = np.random.default_rng(18)
    x = rand(rng, 2, 4, 3)
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    weights = rng.standard_normal((2, 3))

    def f():
        return ad.sum_(ad.mul(ad.masked_mean(ad.apply_mask(x, mask), mask), Tensor(weights)))

    fd(f, {"x": x})


def test_grad_concat_splits_upstream():
    rng = np.random.default_rng(19)
    a, b = rand(rng, 2, 3), rand(rng, 2, 2)
    weights = rng.standard_normal((2, 5))

    def f():
        return ad.sum_(ad.mul(ad.concat([a, b], axis=1), Tensor(weights)))

    fd(f, {"a": a, "b": b})


def test_grad_reverse_negates_gradient_only():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    out = ad.grad_reverse(x)
    assert np.array_equal(out.data, x.data)
    ad.backward(ad.sum_(ad.mul(out, 3.0)))
    assert np.allclose(x.grad, [-3.0, -3.0])


# -- graph mechanics --------------------------------------------------------------


def test_diamond_graph_accumulates_once():
    # y = x*x + x*x: each path contributes 2x, total 4x.
    x = Tensor(np.array(3.0), requires_grad=True)
    shared = ad.mul(x, x)
    out = ad.add(shared, shared)
    ad.backward(out)
    assert x.grad == pytest.approx(12.0)


@pytest.mark.parametrize("add_first", [True, False])
def test_gradient_buffers_never_alias(add_first):
    # add hands one array to both parents; the first write must copy it, or
    # a's later mul contribution would also land in b.grad
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    terms = [ad.sum_(ad.add(a, b)), ad.sum_(ad.mul(a, 3.0))]
    ad.backward(ad.add(*(terms if add_first else terms[::-1])))
    assert np.array_equal(a.grad, np.full((2, 3), 4.0))
    assert np.array_equal(b.grad, np.ones((2, 3)))
    assert not np.shares_memory(a.grad, b.grad)


def test_topo_order_visits_each_node_once():
    x = Tensor(np.array(2.0), requires_grad=True)
    shared = ad.mul(x, x)
    out = ad.add(ad.mul(shared, 2.0), shared)
    order = ad.topo_order(out)
    assert len(order) == len(set(map(id, order)))
    assert order[-1] is out


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ad.ContractError):
        ad.backward(ad.mul(x, 2.0))


def test_no_grad_suppresses_graph_recording():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with ad.no_grad():
        out = ad.mul(ad.add(x, 1.0), 2.0)
    assert out._parents == ()
    assert out._backward is None


# -- surface ----------------------------------------------------------------------


def _autodiff_names_used(source: str) -> set[str]:
    """Names a module takes from autodiff: `from .autodiff import x` or `ad.x`."""
    tree = ast.parse(source)
    used, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "autodiff"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            used.add(node.attr)
    return used


def test_every_public_autodiff_function_is_used_by_the_package():
    # the engine exposes only what the model calls, plus the harness used by tests
    harness = {"backward", "topo_order", "no_grad", "sum_", "finite_difference_check"}
    package = Path(ad.__file__).parent
    used = set()
    for module in package.glob("*.py"):
        if module.name not in ("autodiff.py", "__init__.py"):
            used |= _autodiff_names_used(module.read_text(encoding="utf-8"))
    public = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
              if fn.__module__ == ad.__name__ and not name.startswith("_")}
    assert "masked_softmax" in used and "conv1d" in used
    assert sorted(public - harness - used) == []


# -- the harness itself -----------------------------------------------------------


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

    report = ad.finite_difference_check(wrong, {"x": x})
    assert not report.passed
    assert "FAIL" in report.summary()


def test_finite_difference_check_rejects_nondeterminism():
    x = Tensor(np.array([1.0]), requires_grad=True)
    rng = np.random.default_rng(20)

    def noisy():
        return ad.sum_(ad.mul(x, float(rng.standard_normal())))

    with pytest.raises(ad.ContractError, match="deterministic"):
        ad.finite_difference_check(noisy, {"x": x})


def test_finite_difference_report_summary_lists_params():
    rng = np.random.default_rng(21)
    a = rand(rng, 2, 2)
    report = ad.finite_difference_check(lambda: ad.sum_(ad.mul(a, a)), {"a": a})
    assert report.passed
    assert "a" in report.max_rel_error
    assert "PASS" in report.summary()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_softmax_rows_always_normalize(rows, cols, seed):
    # masked_softmax over ragged masks: each row normalizes over its valid
    # slots, masked slots are exactly 0, and a fully masked row is all 0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)) * 5
    lengths = rng.integers(0, cols + 1, rows)
    lengths[0] = 0
    mask = (np.arange(cols)[None, :] < lengths[:, None]).astype(np.float64)
    out = ad.masked_softmax(Tensor(x), mask, axis=1).data
    assert np.isfinite(out).all()
    assert (out >= 0).all()
    assert np.array_equal(out[mask == 0], np.zeros(int((mask == 0).sum())))
    assert np.allclose(out.sum(axis=1), (lengths > 0).astype(np.float64))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_sum_then_backward_gives_ones(rows, cols, seed):
    x = Tensor(np.random.default_rng(seed).standard_normal((rows, cols)), requires_grad=True)
    ad.backward(ad.sum_(x))
    assert np.array_equal(x.grad, np.ones((rows, cols)))
