"""Autodiff engine: forward oracles, gradient checks, and graph mechanics."""

import ast
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import conv_reference, finite_difference_check, sum_
from htcinfomax import autodiff as ad
from htcinfomax.autodiff import Tensor


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def fd(f, params, tol=1e-4):
    report = finite_difference_check(f, params, tol=tol)
    assert report.passed, report.summary()


def conv1d(x, kernel, bias=None, mask=None):
    """A same-length 1-D convolution over x, [S, C] or [B, S, C], plus an
    optional bias, as the MI discriminator runs its conv1: `token_conv` over
    x's rows read as the positions (ids None), under a [B, S] or [S] mask
    (by default none is masked)."""
    *lead, seq_len, c_in = x.shape
    batch, c_out = (lead or [1])[0], kernel.shape[2]
    mask = np.ones((batch, seq_len)) if mask is None else np.reshape(mask, (batch, seq_len))
    bias = Tensor(np.zeros(c_out)) if bias is None else bias
    out = ad.token_conv(ad.reshape(x, (batch * seq_len, c_in)), [kernel], [bias], None, mask)
    return ad.reshape(out, x.shape[:-1] + (c_out,))


# -- forward values against numpy ------------------------------------------------


def test_add_mul_match_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        assert np.allclose(ad.add(Tensor(a), Tensor(b)).data, a + b)
        assert np.allclose(ad.mul(Tensor(a), Tensor(b)).data, a * b)
        assert np.allclose(ad.mul(Tensor(a), 2.5).data, a * 2.5)


@pytest.mark.parametrize("op", ["matmul", "conv1d"])
def test_fused_bias_is_exact(op):
    # the bias operand does what a separate add did: the same one addition
    # forward and the same sum over the leading axes backward, bit for bit
    # (token_conv always takes a bias, so its bare product adds zeros)
    rng = np.random.default_rng(1)
    if op == "matmul":
        fn, x, w = ad.matmul, rng.standard_normal((5, 3)), rng.standard_normal((3, 4))
        product = x @ w
    else:
        fn, x, w = conv1d, rng.standard_normal((2, 5, 3)), rng.standard_normal((3, 3, 4))
        product = conv1d(Tensor(x), Tensor(w)).data
    bias = Tensor(rng.standard_normal(4), requires_grad=True)
    out = fn(Tensor(x), Tensor(w, requires_grad=True), bias)
    assert np.array_equal(out.data, product + bias.data)
    g = rng.standard_normal(out.shape)
    ad.backward(sum_(ad.mul(out, Tensor(g))))
    assert np.array_equal(bias.grad, g.sum(axis=tuple(range(g.ndim - 1))))
    with pytest.raises(ad.DimensionError, match="bias"):
        fn(Tensor(x), Tensor(w), Tensor(np.zeros(3)))


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
    assert np.allclose(sum_(Tensor(x)).data, x.sum())
    assert np.allclose(sum_(Tensor(x), axis=1).data, x.sum(axis=1))
    assert np.allclose(ad.mean(Tensor(x), axis=0).data, x.mean(axis=0))


def test_conv1d_matches_explicit_sliding_window():
    rng = np.random.default_rng(6)
    for k in (2, 3, 4):
        x = rng.standard_normal((5, 3))
        kern = rng.standard_normal((k, 3, 2))
        out = conv1d(Tensor(x), Tensor(kern)).data
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
    batched = conv1d(Tensor(x), Tensor(kern)).data
    for b in range(3):
        single = conv1d(Tensor(x[b]), Tensor(kern)).data
        assert np.allclose(batched[b], single)


def test_conv1d_errors():
    with pytest.raises(ad.DomainError):
        conv1d(Tensor(np.zeros((0, 3))), Tensor(np.zeros((3, 3, 2))))
    with pytest.raises(ad.DimensionError):
        conv1d(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 5, 2))))


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
        return sum_(ad.mul(ad.add(a, b), ad.add(a, 2.0)))

    fd(f, {"a": a, "b": b})


def test_grad_matmul_bias():
    rng = np.random.default_rng(11)
    x, w = rand(rng, 4, 3), rand(rng, 3, 5)
    bias = rand(rng, 5)

    def f():
        return sum_(ad.sigmoid(ad.matmul(x, w, bias)))

    fd(f, {"x": x, "w": w, "bias": bias})
    # a trailing-axis bias is matmul's operand; add takes same shapes only
    with pytest.raises(ad.DimensionError):
        ad.add(ad.matmul(x, w), bias)


def test_grad_bmm_transpose_reshape():
    rng = np.random.default_rng(12)
    a, b = rand(rng, 2, 3, 4), rand(rng, 2, 4, 2)

    def f():
        out = ad.bmm(a, b)
        out = ad.transpose(out, (0, 2, 1))
        return sum_(ad.mul(ad.reshape(out, (12,)), ad.reshape(out, (12,))))

    fd(f, {"a": a, "b": b})


def test_relu_keeps_nan_with_zero_gradient():
    # a NaN going in comes out, so a finiteness check further on sees it
    x = Tensor(np.array([np.nan, -1.0, -0.0, 0.0, 2.0]), requires_grad=True)
    out = ad.relu(x)
    assert np.isnan(out.data[0])
    assert np.array_equal(out.data[1:], [0.0, 0.0, 0.0, 2.0])
    assert not np.signbit(out.data[1:]).any()
    ad.backward(sum_(ad.mul(out, Tensor(np.ones(5)))))
    assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("op", [ad.relu, ad.sigmoid, ad.softplus, ad.logsigmoid])
def test_grad_elementwise_ops(op):
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((4, 4)) + 0.3, requires_grad=True)

    def f():
        return sum_(op(x))

    fd(f, {"x": x})


def test_grad_softmax_and_masked_softmax():
    rng = np.random.default_rng(15)
    x = rand(rng, 3, 5)
    target = rng.standard_normal((3, 5))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [0, 1, 0, 1, 1]], dtype=np.float64)

    def f_plain():
        return sum_(ad.mul(ad.masked_softmax(x, np.ones((3, 5)), axis=1), Tensor(target)))

    def f_masked():
        return sum_(ad.mul(ad.masked_softmax(x, mask, axis=1), Tensor(target)))

    fd(f_plain, {"x": x})
    fd(f_masked, {"x": x})


def test_grad_reductions():
    rng = np.random.default_rng(16)
    x = rand(rng, 3, 4)

    def f_mean():
        return ad.mean(ad.mul(x, x))

    def f_axis():
        return sum_(ad.mean(x, axis=1))

    fd(f_mean, {"x": x})
    fd(f_axis, {"x": x})


def test_grad_conv1d_all_kernels():
    rng = np.random.default_rng(17)
    for k in (2, 3, 4):
        x = rand(rng, 2, 5, 3)
        kern = rand(rng, k, 3, 2)
        weights = rng.standard_normal((2, 5, 2))

        def f():
            return sum_(ad.mul(conv1d(x, kern), Tensor(weights)))

        fd(f, {"x": x, "kern": kern})


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "2d"])
@pytest.mark.parametrize("k", range(1, 8))
def test_conv1d_oracle_over_widths_and_lengths(k, batched):
    # lengths 1-9 include sequences shorter than a tap's reach (S=2, k=7),
    # where that tap's valid span is empty
    rng = np.random.default_rng(100 + k)
    for seq_len in range(1, 10):
        shape = (2, seq_len, 3) if batched else (seq_len, 3)
        x, kern = rand(rng, *shape), rand(rng, k, 3, 2)
        out = conv1d(x, kern).data
        assert out.shape == shape[:-1] + (2,)
        assert np.allclose(out, conv_reference(x.data, kern.data), rtol=1e-12, atol=1e-12)
        weights = Tensor(rng.standard_normal(out.shape))
        fd(lambda: sum_(ad.mul(conv1d(x, kern), weights)), {"x": x, "kern": kern})


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "2d"])
@pytest.mark.parametrize("k", range(1, 5))
def test_grad_conv1d_bias_ragged(k, batched):
    # as the MI discriminator runs it: conv plus bias over the unmasked rows
    # only, zero at the masked positions
    rng = np.random.default_rng(200 + k)
    mask = np.array([[1.0] * 5, [1.0, 1.0, 0.0, 0.0, 0.0]])
    if not batched:
        mask = mask[1]
    x, kern, bias = rand(rng, *mask.shape, 3), rand(rng, k, 3, 2), rand(rng, 2)
    weights = Tensor(rng.standard_normal(mask.shape + (2,)))

    def f():
        return sum_(ad.mul(conv1d(x, kern, bias, mask), weights))

    fd(f, {"x": x, "kern": kern, "bias": bias})


# -- token_conv against the numpy lookup, mask, conv and concat chain -----------------


def lookup_mask_conv_concat(table, kernels, biases, ids, mask):
    """token_conv's oracle in plain numpy: look the ids up, zero the masked
    positions, convolve with each kernel plus its bias, concatenate, and
    zero the masked positions of the output."""
    x = table.data[ids] * mask[..., None]
    return np.concatenate([conv_reference(x, k.data) + b.data for k, b in zip(kernels, biases)],
                          axis=-1) * mask[..., None]


def assert_close(actual, expected):
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


TOKEN_CONV_CASES = {
    # name: (kernel widths, ids [B, S], valid lengths)
    "widths-1-to-4": ((1, 2, 3, 4), [[2, 5, 7, 1, 3, 4], [6, 2, 2, 8, 0, 5], [3, 3, 9, 4, 1, 7]],
                      [6, 4, 2]),
    "single-width-4": ((4,), [[2, 5, 7, 1, 3], [6, 2, 2, 8, 0]], [5, 3]),
    "shorter-than-kernel": ((2, 3, 4), [[4, 7], [1, 1]], [2, 1]),
    "length-one": ((1, 4), [[3], [5], [3]], [1, 1, 1]),
    "one-id-everywhere": ((2, 3, 4), [[6] * 5] * 4, [5, 5, 2, 4]),
}


def token_conv_inputs(case, seed=0):
    widths, ids, lengths = TOKEN_CONV_CASES[case]
    ids = np.array(ids)
    mask = (np.arange(ids.shape[1]) < np.array(lengths)[:, None]).astype(np.float64)
    rng = np.random.default_rng(seed)
    table = rand(rng, 10, 3)
    kernels = [rand(rng, k, 3, 2) for k in widths]
    biases = [rand(rng, 2) for _ in widths]
    return table, kernels, biases, ids, mask


@pytest.mark.parametrize("table_rows", ["batch", "vocabulary"])
@pytest.mark.parametrize("case", sorted(TOKEN_CONV_CASES))
def test_token_conv_matches_the_lookup_mask_conv_concat_chain(case, table_rows):
    table, kernels, biases, ids, mask = token_conv_inputs(case)
    given = (ad.token_responses(table, kernels),) if table_rows == "vocabulary" else ()
    out = ad.token_conv(table, kernels, biases, ids, mask, *given)
    assert_close(out.data, lookup_mask_conv_concat(table, kernels, biases, ids, mask))
    # a given table is a constant; test_grad_token_conv checks the gradients of the other
    assert out.requires_grad == (not given)


@pytest.mark.parametrize("case", sorted(TOKEN_CONV_CASES))
def test_grad_token_conv(case):
    table, kernels, biases, ids, mask = token_conv_inputs(case, seed=3)
    weights = Tensor(np.random.default_rng(4).standard_normal(ids.shape + (2 * len(kernels),)))
    params = {"table": table}
    params.update({f"kernel{i}": k for i, k in enumerate(kernels)})
    params.update({f"bias{i}": b for i, b in enumerate(biases)})
    fd(lambda: sum_(ad.mul(ad.token_conv(table, kernels, biases, ids, mask), weights)), params)


@pytest.mark.parametrize("case", ["widths-1-to-4", "one-id-everywhere"])
def test_token_conv_is_zero_with_no_gradient_at_masked_positions(case):
    # the op owns padding: its output is exactly 0 at masked positions on
    # both paths, and a loss read only there gives every input zero gradient
    table, kernels, biases, ids, mask = token_conv_inputs(case, seed=5)
    masked = mask == 0
    assert masked.any()
    for given in ((), (ad.token_responses(table, kernels),)):
        assert np.all(ad.token_conv(table, kernels, biases, ids, mask, *given).data[masked] == 0.0)
    params = {"table": table, **{f"kernel{i}": k for i, k in enumerate(kernels)},
              **{f"bias{i}": b for i, b in enumerate(biases)}}
    weights = np.random.default_rng(6).standard_normal(ids.shape + (2 * len(kernels),))
    fd(lambda: sum_(ad.mul(ad.token_conv(table, kernels, biases, ids, mask), Tensor(weights))),
       params)
    weights[~masked] = 0.0
    ad.backward(sum_(ad.mul(ad.token_conv(table, kernels, biases, ids, mask), Tensor(weights))))
    assert all(p.grad is not None and not np.any(p.grad) for p in params.values())


def test_token_conv_writes_the_embedding_gradient_into_its_arena_block():
    # a parameter's first gradient lands in grad_view; a second contribution adds to it
    table, kernels, biases, ids, mask = token_conv_inputs("widths-1-to-4")

    def two_convs(t):
        return ad.add(sum_(ad.token_conv(t, kernels, biases, ids, mask)),
                      sum_(ad.token_conv(t, kernels[1:], biases[1:], ids[::-1], mask)))

    block = np.full(table.shape, np.nan)
    table.grad_view = block
    ad.backward(two_convs(table))
    assert table.grad is block
    fresh, *_ = token_conv_inputs("widths-1-to-4")
    ad.backward(two_convs(fresh))
    assert np.array_equal(block, fresh.grad)


def test_token_conv_stacks_the_taps_from_a_response_table_only_for_backward(monkeypatch):
    # a given table records no backward, so neither grad mode stacks the taps
    table, kernels, biases, ids, mask = token_conv_inputs("widths-1-to-4")
    responses = ad.token_responses(table, kernels)
    stacked = []
    original = ad._stacked_taps
    monkeypatch.setattr(ad, "_stacked_taps", lambda ks: stacked.append(ks) or original(ks))
    with ad.no_grad():
        ad.token_conv(table, kernels, biases, ids, mask, responses)
    ad.token_conv(table, kernels, biases, ids, mask, responses)
    assert stacked == []
    with pytest.raises(ad.DimensionError, match="kernels"):
        ad.token_conv(table, [rand(np.random.default_rng(0), 2, 4, 2)], biases[:1], ids, mask,
                      responses)


def test_token_conv_records_no_graph_from_a_response_table():
    # the table is a constant of the parameters, so its output has no parents
    # even while grads are recording and every parameter requires them
    table, kernels, biases, ids, mask = token_conv_inputs("widths-1-to-4")
    out = ad.token_conv(table, kernels, biases, ids, mask, ad.token_responses(table, kernels))
    assert all(p.requires_grad for p in [table, *kernels, *biases])
    assert out.requires_grad is False and out._parents == () and out._backward is None
    assert ad.token_conv(table, kernels, biases, ids, mask).requires_grad is True


def test_token_responses_are_tap_major_blocks_over_two_zero_rows():
    # block t of kernel j sits at (the earlier kernels' widths) + t, so each
    # tap's gather reads contiguous rows; masked positions read the +0.0 row,
    # sources outside the sequence the -0.0 row, which adds exactly nothing
    table, kernels, _, _, _ = token_conv_inputs("widths-1-to-4")
    responses = ad.token_responses(table, kernels)
    assert responses.shape == (1 + 2 + 3 + 4, 12, 2) and responses.flags.c_contiguous
    first = 0
    for kernel in kernels:
        for t in range(kernel.shape[0]):
            assert_close(responses[first + t, :-2], table.data @ kernel.data[t])
            assert np.all(responses[first + t, -2:] == 0.0)
            assert not np.signbit(responses[first + t, -2]).any()
            assert np.signbit(responses[first + t, -1]).all()
        first += kernel.shape[0]


def test_token_conv_inference_features_do_not_depend_on_the_batch():
    # a document's features from the response table are the same bits alone,
    # beside another full-length document (no masked position) and beside a
    # shorter padded one (the masked path)
    table, kernels, biases, _, _ = token_conv_inputs("widths-1-to-4", seed=7)
    responses = ad.token_responses(table, kernels)
    doc, full, short = [2, 5, 7, 1, 3, 4], [6, 2, 2, 8, 0, 5], [3, 9, 0, 0, 0, 0]

    def features(ids, lengths):
        mask = (np.arange(6) < np.array(lengths)[:, None]).astype(np.float64)
        return ad.token_conv(table, kernels, biases, np.array(ids), mask, responses).data[0]

    alone = features([doc], [6])
    assert np.array_equal(alone, features([doc, full], [6, 6]))
    assert np.array_equal(alone, features([doc, short], [6, 2]))


def test_token_conv_kernels_must_share_one_c_out():
    table, kernels, biases, ids, mask = token_conv_inputs("widths-1-to-4")
    rng = np.random.default_rng(1)
    wide = [kernels[0], rand(rng, 3, 3, 5)]
    with pytest.raises(ad.DimensionError, match=r"kernels \[\(1, 3, 2\), \(3, 3, 5\)\].*one C_out"):
        ad.token_conv(table, wide, [biases[0], rand(rng, 5)], ids, mask)
    with pytest.raises(ad.DimensionError, match="one C_out"):
        ad.token_responses(table, wide)


def test_token_conv_rounds_add_each_position_once():
    pos = np.array([4, 1, 4, 9, 4, 1, 0, 9])      # 9 marks a masked position
    at, sizes = ad._occurrence_rounds(pos, 9)
    assert at.tolist() == [6, 1, 0, 5, 2, 4] and sizes.tolist() == [3, 2, 1]
    at, sizes = ad._occurrence_rounds(np.array([9, 9]), 9)
    assert at.size == 0 and sizes.size == 0


def positions_inputs(widths, lengths, seq_len, seed=0):
    """A [B*S, 3] table of positions, kernels of the given widths, their
    biases and the mask of the given valid lengths."""
    rng = np.random.default_rng(seed)
    mask = (np.arange(seq_len) < np.array(lengths)[:, None]).astype(np.float64)
    table = rand(rng, mask.size, 3)
    return table, [rand(rng, k, 3, 2) for k in widths], [rand(rng, 2) for _ in widths], mask


def positions_and_ids(table, kernels, biases, mask):
    """token_conv's output and its table, kernel and bias gradients, with
    ids None and then with ids the positions, arange(B*S).reshape(B, S)."""
    weights = Tensor(np.random.default_rng(9).standard_normal(mask.shape + (2 * len(kernels),)))
    results, n = [], len(kernels)
    for ids in (None, np.arange(mask.size).reshape(mask.shape)):
        leaves = [Tensor(p.data, requires_grad=True) for p in [table, *kernels, *biases]]
        out = ad.token_conv(leaves[0], leaves[1:1 + n], leaves[1 + n:], ids, mask)
        ad.backward(sum_(ad.mul(out, weights)))
        results.append([out.data] + [leaf.grad for leaf in leaves])
    return results


POSITION_WIDTHS = [(k,) for k in range(1, 9)] + [(1, 2, 3, 4), (5, 6, 7, 8)]


@pytest.mark.parametrize("seq_len", [3, 7])
@pytest.mark.parametrize("widths", POSITION_WIDTHS, ids=str)
def test_token_conv_positions_are_the_position_ids_bit_for_bit(widths, seq_len):
    # unpadded, ids None runs the same GEMMs and the same additions in the
    # same order as ids = the positions; at seq_len 3 kernels of width 7 and 8
    # reach past twice the sequence, so some taps read nothing inside it
    by_position, by_id = positions_and_ids(*positions_inputs(widths, [seq_len] * 3, seq_len))
    for a, b in zip(by_position, by_id):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("widths", [(1,), (3,), (2, 3, 4), (7, 8)], ids=str)
def test_token_conv_positions_of_a_ragged_batch(widths):
    # padded, ids None reads the unmasked positions as ids = the positions
    # do, so the two agree bit for bit; a masked position's output is
    # exactly zero, and its row gets zero gradient
    table, kernels, biases, mask = positions_inputs(widths, [6, 4, 1, 0], 6, seed=1)
    table.data[mask.reshape(-1) == 0] = np.nan      # never read: a masked row is a zero vector
    by_position, by_id = positions_and_ids(table, kernels, biases, mask)
    for a, b in zip(by_position, by_id):
        assert np.array_equal(a, b)
    out, *grads = by_position
    assert np.all(out[mask == 0] == 0.0)
    assert np.all(grads[0][mask.reshape(-1) == 0] == 0.0)


@pytest.mark.parametrize("lengths", [[5, 5], [5, 2]], ids=["unpadded", "padded"])
def test_grad_token_conv_positions(lengths):
    table, kernels, biases, mask = positions_inputs((1, 2, 3, 4), lengths, 5, seed=2)
    weights = Tensor(np.random.default_rng(3).standard_normal(mask.shape + (8,)))
    params = {"table": table, **{f"kernel{i}": k for i, k in enumerate(kernels)},
              **{f"bias{i}": b for i, b in enumerate(biases)}}
    fd(lambda: sum_(ad.mul(ad.token_conv(table, kernels, biases, None, mask), weights)), params)


def test_token_conv_positions_errors():
    table, kernels, biases, mask = positions_inputs((2, 3), [4, 2], 4)
    with pytest.raises(ad.ContractError, match="response table"):
        ad.token_conv(table, kernels, biases, None, mask, ad.token_responses(table, kernels))
    with pytest.raises(ad.DimensionError, match="8 table rows"):
        ad.token_conv(table, kernels, biases, None, mask[:, :-1])
    with pytest.raises(ad.DimensionError, match=r"mask \(8,\)"):
        ad.token_conv(table, kernels, biases, None, mask.reshape(-1))


def test_token_conv_errors():
    table, kernels, biases, ids, mask = token_conv_inputs("widths-1-to-4")
    with pytest.raises(ad.DimensionError, match="mask"):
        ad.token_conv(table, kernels, biases, ids, mask[:, :-1])
    with pytest.raises(ad.DimensionError, match="biases"):
        ad.token_conv(table, kernels, biases[:-1], ids, mask)
    with pytest.raises(ad.DimensionError, match="kernels"):
        ad.token_conv(table, [rand(np.random.default_rng(0), 2, 4, 2)], biases[:1], ids, mask)
    with pytest.raises(ad.DimensionError, match="responses"):
        ad.token_conv(table, kernels, biases, ids, mask, np.zeros((10, 20)))
    with pytest.raises(IndexError, match="id 10"):
        ad.token_conv(table, kernels, biases, np.full(ids.shape, 10), mask)
    with pytest.raises(ad.DomainError):
        ad.token_conv(table, kernels, biases, np.zeros((2, 0), dtype=np.int64), np.zeros((2, 0)))


def test_grad_masked_mean_and_apply_mask():
    # masked_mean over a ragged mask; the output zeroing a separate apply_mask
    # node once did is token_conv's own (test_token_conv_is_zero_with_no_...)
    rng = np.random.default_rng(18)
    x = rand(rng, 3, 4, 3)
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    weights = rng.standard_normal((3, 3))

    def f():
        return sum_(ad.mul(ad.masked_mean(x, mask), Tensor(weights)))

    fd(f, {"x": x})
    ad.backward(f())        # a masked position receives no gradient
    assert np.all(x.grad[mask == 0] == 0.0)


def test_grad_concat_splits_upstream():
    rng = np.random.default_rng(19)
    a, b = rand(rng, 2, 3), rand(rng, 2, 2)
    weights = rng.standard_normal((2, 5))

    def f():
        return sum_(ad.mul(ad.concat([a, b], axis=1), Tensor(weights)))

    fd(f, {"a": a, "b": b})


def test_grad_reverse_negates_gradient_only():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    out = ad.grad_reverse(x)
    assert np.array_equal(out.data, x.data)
    ad.backward(sum_(ad.mul(out, 3.0)))
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
    terms = [sum_(ad.add(a, b)), sum_(ad.mul(a, 3.0))]
    ad.backward(ad.add(*(terms if add_first else terms[::-1])))
    assert np.array_equal(a.grad, np.full((2, 3), 4.0))
    assert np.array_equal(b.grad, np.ones((2, 3)))
    assert not np.shares_memory(a.grad, b.grad)


@pytest.mark.parametrize("reverse", [False, True])
def test_borrowed_gradients_are_never_written(reverse, monkeypatch):
    # op outputs keep the first gradient they are handed without a copy;
    # here each of p, q and the table gets that gradient shared (add, twice)
    # or as a view (concat), then more contributions, which must make new
    # arrays rather than write into the borrowed one; token_conv hands the
    # table a whole gradient when its rows are the positions, and adds rows
    # through ids into a copy of the one the table holds (in either order,
    # the ids term runs between the other two)
    rng = np.random.default_rng(30)
    x, y, w = rand(rng, 3, 2), rand(rng, 3, 2), rand(rng, 2, 2)
    weights = [Tensor(rng.standard_normal(shape))
               for shape in ((3, 2), (3, 4), (1, 3, 2), (1, 4, 2), (3, 2))]
    kernel, bias, ids = Tensor(rng.standard_normal((2, 2, 2))), Tensor(np.zeros(2)), [[2, 0, 2, 1]]

    def f():
        p, q = ad.sigmoid(x), ad.mul(x, y)
        table = ad.matmul(x, w)
        terms = [
            sum_(ad.mul(ad.add(p, q), weights[0])),
            sum_(ad.mul(ad.concat([p, q], axis=1), weights[1])),
            sum_(ad.mul(ad.token_conv(table, [kernel], [bias], None, np.ones((1, 3))), weights[2])),
            sum_(ad.mul(ad.token_conv(table, [kernel], [bias], ids, np.ones((1, 4))), weights[3])),
            sum_(ad.mul(ad.add(table, q), weights[4])),
        ]
        return functools.reduce(ad.add, terms[::-1] if reverse else terms)

    borrowed = []
    accum = ad._accum

    def recording_accum(t, g):
        if t.requires_grad and t.grad is None and t._backward is not None:
            borrowed.append((g, g.copy()))
        accum(t, g)

    monkeypatch.setattr(ad, "_accum", recording_accum)
    fd(f, {"x": x, "y": y, "w": w})
    assert len(borrowed) > 10
    assert all(np.array_equal(g, before) for g, before in borrowed)


def test_op_outputs_borrow_their_first_gradient(monkeypatch):
    # backward releases a and b once their closures ran, so the gradient
    # each is handed is recorded as it arrives
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    a, b = ad.mul(x, 2.0), ad.mul(x, 3.0)
    handed = {}
    accum = ad._accum

    def recording_accum(t, g):
        if t is a or t is b:
            handed[id(t)] = g
        accum(t, g)

    monkeypatch.setattr(ad, "_accum", recording_accum)
    ad.backward(sum_(ad.mul(ad.add(a, b), Tensor(np.full((2, 3), 5.0)))))
    assert handed[id(a)] is handed[id(b)]
    assert np.array_equal(x.grad, np.full((2, 3), 25.0))


def test_backward_releases_op_outputs_and_keeps_leaf_gradients():
    rng = np.random.default_rng(31)
    x, w = rand(rng, 3, 2), rand(rng, 2, 2)
    const = Tensor(rng.standard_normal((3, 2)))
    loss = sum_(ad.mul(ad.add(ad.sigmoid(ad.matmul(x, w)), const), ad.relu(x)))
    nodes = ad.topo_order(loss)
    ops = [n for n in nodes if n._backward is not None]
    leaves = [n for n in nodes if n._backward is None and n.requires_grad]
    assert len(ops) == 6 and {id(n) for n in leaves} == {id(x), id(w)}
    ad.backward(loss)
    assert all(n.grad is None and n._parents == () for n in ops)
    assert all(n.grad is not None and n.grad.shape == n.shape for n in leaves)
    assert const.grad is None


def test_a_second_backward_through_a_released_node_is_refused():
    # without the refusal, h's stale gradient from the first loss would be
    # reused and x.grad would miss the second loss's part
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    h = ad.mean(ad.mul(x, x))
    ad.backward(h)
    with pytest.raises(ad.ContractError, match="released"):
        ad.backward(ad.mul(h, 2.0))
    with pytest.raises(ad.ContractError, match="released"):
        ad.backward(h)


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


# -- the earlier numpy formulations of rewritten ops, kept as exact oracles ---------


def previous_sigmoid(x):
    out = np.empty_like(x)
    nonneg = x >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-x[nonneg]))
    ex = np.exp(x[~nonneg])
    out[~nonneg] = ex / (1.0 + ex)
    return out


def previous_masked_softmax(x, mask, axis):
    m = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    neg_inf = np.where(m, x, -np.inf)
    high = neg_inf.max(axis=axis, keepdims=True)
    high = np.where(np.isfinite(high), high, 0.0)
    e = np.where(m, np.exp(neg_inf - high), 0.0)
    denom = e.sum(axis=axis, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def previous_concat_grads(g, shapes, axis):
    offsets = np.cumsum([0] + [shape[axis] for shape in shapes])
    grads = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        index = [slice(None)] * g.ndim
        index[axis] = slice(lo, hi)
        grads.append(g[tuple(index)])
    return grads


def previous_mean_grad(g, shape, axis):
    if axis is None:
        return np.broadcast_to(g / int(np.prod(shape)), shape)
    return np.broadcast_to(np.expand_dims(g, axis) / shape[axis], shape)


def weighted_sum_grad(out, x, g):
    """x.grad after backward of sum(out * g): the upstream gradient is exactly g."""
    x.grad = None
    ad.backward(sum_(ad.mul(out, Tensor(g))))
    return x.grad


def test_sigmoid_matches_previous_formulation_at_extremes():
    rng = np.random.default_rng(31)
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 700.5, -700.5, 745.2, -745.2,
                         800.0, -800.0, 1e308, -1e308, 5e-324, -5e-324],
                        rng.standard_normal(64) * 30])
    new, old = ad._sigmoid_np(x), previous_sigmoid(x)
    assert np.array_equal(new, old, equal_nan=True)
    assert np.array_equal(np.signbit(new[~np.isnan(new)]), np.signbit(old[~np.isnan(old)]))


@pytest.mark.parametrize("axis", [2, -1, 1])
def test_masked_softmax_matches_previous_formulation(axis):
    rng = np.random.default_rng(32)
    x = rand(rng, 3, 4, 6)
    mask = rng.random((3, 1, 6)) > 0.3 if axis != 1 else rng.random((3, 4, 1)) > 0.3
    mask[1] = False                                 # a fully masked slice
    out = ad.masked_softmax(x, mask, axis=axis)
    expected = previous_masked_softmax(x.data, mask, axis)
    assert np.array_equal(out.data, expected) and not np.signbit(out.data).any()
    assert not out.data[1].any()
    g = rng.standard_normal(out.shape)
    inner = (g * expected).sum(axis=axis, keepdims=True)
    assert np.array_equal(weighted_sum_grad(out, x, g), expected * (g - inner))


def test_masked_softmax_propagates_a_nan_score():
    # the previous formulation zeroed a slice holding a NaN score, which hid
    # the NaN from total_loss's finiteness check; now the slice is NaN
    scores = np.array([[1.0, np.nan, 0.5, 2.0], [0.3, -1.0, 4.0, 0.0]])
    mask = np.array([[1, 1, 0, 1], [1, 0, 1, 1]], dtype=bool)
    out = ad.masked_softmax(Tensor(scores), mask, axis=1).data
    old = previous_masked_softmax(scores, mask, 1)
    assert np.isnan(out[0]).all() and not old[0].any()
    assert np.array_equal(out[1], old[1])


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_concat_gradients_match_previous_slicing(axis):
    rng = np.random.default_rng(33)
    shapes = []
    for extent in (2, 3, 1):
        shape = [2, 3, 4]
        shape[axis] = extent
        shapes.append(tuple(shape))
    parts = [rand(rng, *shape) for shape in shapes]
    out = ad.concat(parts, axis=axis)
    assert np.array_equal(out.data, np.concatenate([p.data for p in parts], axis=axis))
    g = rng.standard_normal(out.shape)
    ad.backward(sum_(ad.mul(out, Tensor(g))))
    for p, expected in zip(parts, previous_concat_grads(g, shapes, axis)):
        assert np.array_equal(p.grad, expected)


@pytest.mark.parametrize("shapes,axis", [
    ([(2, 3), (2, 3, 1)], 0),          # rank mismatch
    ([(2, 3), (3, 3)], 1),             # extent mismatch off the concat axis
    ([(2, 3, 4), (2, 5, 4)], 2),
    ([], 0),                           # no parts
])
def test_concat_mismatch_is_dimension_error(shapes, axis):
    with pytest.raises(ad.DimensionError, match="concat"):
        ad.concat([Tensor(np.zeros(shape)) for shape in shapes], axis=axis)


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_mean_matches_previous_formulation(axis):
    rng = np.random.default_rng(34)
    x = rand(rng, 4, 5)
    out = ad.mean(x, axis=axis)
    assert np.array_equal(out.data, x.data.mean(axis=axis))
    g = rng.standard_normal(out.shape)
    assert np.array_equal(weighted_sum_grad(out, x, g), previous_mean_grad(g, x.shape, axis))


@pytest.mark.parametrize("axes", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
def test_transpose_three_axes_matches_argsort_inverse(axes):
    rng = np.random.default_rng(35)
    x = rand(rng, 2, 3, 4)
    out = ad.transpose(x, axes)
    assert np.array_equal(out.data, x.data.transpose(axes))
    g = rng.standard_normal(out.shape)
    assert np.array_equal(weighted_sum_grad(out, x, g), g.transpose(np.argsort(axes)))


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
    # the engine exposes only what the model calls, plus the graph entry points
    harness = {"backward", "topo_order", "no_grad"}
    package = Path(ad.__file__).parent
    used = set()
    for module in package.glob("*.py"):
        if module.name not in ("autodiff.py", "__init__.py"):
            used |= _autodiff_names_used(module.read_text(encoding="utf-8"))
    public = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
              if fn.__module__ == ad.__name__ and not name.startswith("_")}
    assert "masked_softmax" in used and "token_conv" in used
    assert sorted(public - harness - used) == []


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
    ad.backward(sum_(x))
    assert np.array_equal(x.grad, np.ones((rows, cols)))
