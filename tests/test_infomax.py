"""Mutual information estimation, prior matching, and the loss gate."""

import numpy as np
import pytest

from htcinfomax import autodiff as ad
from htcinfomax.autodiff import Tensor
from htcinfomax.encoders import LabelRepresentations, TextFeatures
from htcinfomax.infomax import (
    LN2,
    LossWeightEstimator,
    MIDiscriminator,
    NumericError,
    PriorDiscriminator,
    mi_loss,
    mi_pairs,
    prior_matching_loss,
    sample_prior,
    total_loss,
)


def make_features(rng, batch=3, seq=5, dim=4):
    feats = Tensor(rng.standard_normal((batch, seq, dim)), requires_grad=True)
    mask = np.ones((batch, seq))
    pooled = ad.masked_mean(feats, mask)
    return TextFeatures(token_feats=feats, pooled=pooled, mask=mask)


def make_labels(rng, count=5, dim=4):
    return LabelRepresentations(matrix=Tensor(rng.standard_normal((count, dim)),
                                              requires_grad=True))


# -- discriminator architecture ----------------------------------------------------


def test_mi_discriminator_layer_shapes():
    disc = MIDiscriminator(4, 6, 8, np.random.default_rng(0), kernel_size=3)
    p = disc.named_params()
    assert p["conv1.kernel"].shape == (3, 4, 4)
    assert p["conv2.kernel"].shape == (3, 4, 8)
    assert p["lin1.weight"].shape == (8 + 6, 8)
    assert p["lin2.weight"].shape == (8, 8)
    assert p["lin3.weight"].shape == (8, 1)


def test_prior_discriminator_layer_shapes():
    disc = PriorDiscriminator(4, (10, 5), np.random.default_rng(0))
    p = disc.named_params()
    assert p["lin1.weight"].shape == (4, 10)
    assert p["lin2.weight"].shape == (10, 5)
    assert p["lin3.weight"].shape == (5, 1)


def ragged_mask(lengths, width):
    return (np.arange(width)[None, :] < np.asarray(lengths)[:, None]).astype(float)


@pytest.mark.parametrize("kernel_size", [2, 3, 4])
def test_mi_pool_text_matches_conv_then_masked_mean(kernel_size):
    # pooling before conv2 is exact: compare with conv2 run on every
    # position of the masked conv1 output, then a masked mean
    rng = np.random.default_rng(20 + kernel_size)
    disc = MIDiscriminator(5, 4, 7, rng, kernel_size=kernel_size)
    mask = ragged_mask([6, 1, 3, 5], 6)
    feats = Tensor(rng.standard_normal((4, 6, 5)) * mask[:, :, None])
    with ad.no_grad():
        pooled = disc.pool_text(feats, mask).data
        h = ad.relu(ad.conv1d(feats, disc.conv1_kernel, disc.conv1_bias))
        h = ad.apply_mask(h, mask)
        conv = ad.conv1d(h, disc.conv2_kernel, disc.conv2_bias)
        oracle = ad.masked_mean(conv, mask).data
    assert pooled.shape == (4, 7)
    assert np.abs(pooled - oracle).max() <= 1e-12


def test_mi_pool_text_rejects_fully_masked_sequence():
    rng = np.random.default_rng(24)
    disc = MIDiscriminator(3, 3, 4, rng)
    with pytest.raises(ad.DomainError):
        disc.pool_text(Tensor(rng.standard_normal((2, 3, 3))), ragged_mask([2, 0], 3))


def test_mi_score_pairs_matches_lin1_on_joined_pairs():
    # projecting before the gather is exact: compare with lin1 applied to
    # the concatenated [text, label] row of every pair
    rng = np.random.default_rng(25)
    disc = MIDiscriminator(4, 6, 8, rng)
    pooled = Tensor(rng.standard_normal((3, 8)))
    labels = Tensor(rng.standard_normal((5, 6)))
    doc_idx = np.array([0, 2, 1, 1, 0, 2, 0])
    label_idx = np.array([4, 4, 0, 3, 1, 2, 4])
    with ad.no_grad():
        logits = disc.score_pairs(doc_idx, label_idx, pooled, labels).data
        joined = ad.concat([Tensor(pooled.data[doc_idx]), Tensor(labels.data[label_idx])], axis=1)
        lin1 = ad.matmul(joined, disc.lin1_w, disc.lin1_b)
        h = ad.relu(ad.matmul(ad.relu(lin1), disc.lin2_w, disc.lin2_b))
        oracle = ad.matmul(h, disc.lin3_w, disc.lin3_b).data
    assert logits.shape == (7, 1)
    assert np.abs(logits - oracle).max() <= 1e-12


def test_prior_discriminator_outputs_probabilities():
    rng = np.random.default_rng(2)
    disc = PriorDiscriminator(4, (10, 5), rng)
    out = disc(Tensor(rng.standard_normal((7, 4)))).data
    assert out.shape == (7, 1)
    assert ((out > 0) & (out < 1)).all()


# -- pairing --------------------------------------------------------------------


def test_mi_pairs_positive_and_cyclic_negative():
    targets = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]], dtype=float)
    pos_doc, label_col, neg_doc = mi_pairs(targets)
    pairs = sorted(zip(pos_doc.tolist(), label_col.tolist()))
    assert pairs == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 1)]
    assert np.array_equal(neg_doc, (pos_doc + 1) % 3)
    assert (neg_doc != pos_doc).all()


def test_mi_pairs_rejects_single_document_batch():
    with pytest.raises(ad.ContractError):
        mi_pairs(np.array([[1.0, 0.0]]))


def test_mi_pairs_rejects_unlabeled_document():
    with pytest.raises(ad.ContractError):
        mi_pairs(np.array([[1.0, 0.0], [0.0, 0.0]]))


# -- mutual information loss ------------------------------------------------------


def test_mi_loss_at_zero_init_is_exactly_chance():
    rng = np.random.default_rng(3)
    disc = MIDiscriminator(4, 4, 8, rng)
    disc.zero_init()
    tf = make_features(rng)
    lr = make_labels(rng, count=6)
    targets = np.array([[1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1]], dtype=float)
    loss = mi_loss(tf, lr, targets, disc)
    assert abs(loss.item() - 2.0 * LN2) < 1e-12


def test_mi_loss_matches_manual_assembly_from_logits():
    rng = np.random.default_rng(4)
    disc = MIDiscriminator(4, 4, 8, rng)
    tf = make_features(rng)
    lr = make_labels(rng, count=6)
    targets = np.array([[1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1]], dtype=float)
    loss = mi_loss(tf, lr, targets, disc)

    pos_doc, label_col, neg_doc = mi_pairs(targets)
    with ad.no_grad():
        pooled = disc.pool_text(tf.token_feats, tf.mask)
        pos = disc.score_pairs(pos_doc, label_col, pooled, lr.matrix).data
        neg = disc.score_pairs(neg_doc, label_col, pooled, lr.matrix).data

    def logsig(x):
        return -np.logaddexp(0.0, -x)

    expected = -(logsig(pos).mean() + logsig(-neg).mean())
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_mi_loss_gradients_pass_finite_differences():
    # a ragged mask routes gradients through the masked shifted means;
    # every discriminator parameter, conv2 and lin1 included, is checked
    rng = np.random.default_rng(5)
    disc = MIDiscriminator(3, 3, 4, rng)
    tf = make_features(rng, batch=2, seq=4, dim=3)
    tf.mask = ragged_mask([4, 2], 4)
    lr = make_labels(rng, count=3, dim=3)
    targets = np.array([[1, 0, 0], [0, 1, 1]], dtype=float)
    params = {"feats": tf.token_feats, "labels": lr.matrix}
    params.update({f"mi.{name}": p for name, p in disc.named_params().items()})

    report = ad.finite_difference_check(lambda: mi_loss(tf, lr, targets, disc), params)
    assert report.passed, report.summary()
    assert {"mi.conv2.kernel", "mi.lin1.weight"} <= set(report.max_rel_error)


def test_mi_loss_reaches_encoder_and_discriminator():
    rng = np.random.default_rng(6)
    disc = MIDiscriminator(3, 3, 4, rng)
    tf = make_features(rng, batch=2, seq=4, dim=3)
    lr = make_labels(rng, count=3, dim=3)
    targets = np.array([[1, 0, 0], [0, 1, 1]], dtype=float)
    ad.backward(mi_loss(tf, lr, targets, disc))
    assert tf.token_feats.grad is not None and np.abs(tf.token_feats.grad).sum() > 0
    assert lr.matrix.grad is not None and np.abs(lr.matrix.grad).sum() > 0
    assert disc.lin3_w.grad is not None


# -- prior matching ----------------------------------------------------------------


def test_sample_prior_uniform_range_and_determinism():
    a = sample_prior(100, 8, 3)
    b = sample_prior(100, 8, 3)
    c = sample_prior(100, 8, 4)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert (a.data >= 0.0).all() and (a.data < 1.0).all()
    assert abs(a.data.mean() - 0.5) < 0.02


def test_prior_matching_at_zero_init_is_exactly_chance():
    rng = np.random.default_rng(7)
    disc = PriorDiscriminator(4, (10, 5), rng)
    disc.zero_init()
    lr = make_labels(rng, count=6)
    loss = prior_matching_loss(lr, sample_prior(6, 4, 0), disc)
    assert abs(loss.item() - 2.0 * LN2) < 1e-12


def test_prior_matching_shape_mismatch_rejected():
    rng = np.random.default_rng(8)
    disc = PriorDiscriminator(4, (10, 5), rng)
    lr = make_labels(rng, count=6)
    with pytest.raises(ad.DimensionError):
        prior_matching_loss(lr, sample_prior(5, 4, 0), disc)


def test_prior_matching_reverses_encoder_gradient_only():
    rng = np.random.default_rng(9)
    disc = PriorDiscriminator(4, (10, 5), rng)
    lr = make_labels(rng, count=6)
    prior = sample_prior(6, 4, 1)

    ad.backward(prior_matching_loss(lr, prior, disc))
    reversed_label_grad = lr.matrix.grad.copy()
    disc_grads = {k: p.grad.copy() for k, p in disc.named_params().items()}

    lr.matrix.zero_grad()
    for p in disc.named_params().values():
        p.zero_grad()

    # same objective without the reversal
    plain = ad.mean(ad.neg(ad.add(ad.logsigmoid(disc.logits(prior)),
                                  ad.logsigmoid(ad.neg(disc.logits(lr.matrix))))))
    ad.backward(plain)

    assert np.allclose(reversed_label_grad, -lr.matrix.grad)
    for k, p in disc.named_params().items():
        assert np.allclose(disc_grads[k], p.grad)


def test_prior_matching_gradient_check_with_reversal_sign():
    # FD sees the encoder gradient negated, so verify against a function
    # that treats the label matrix as frozen and only checks disc params.
    rng = np.random.default_rng(10)
    disc = PriorDiscriminator(3, (6, 4), rng)
    lr = make_labels(rng, count=4, dim=3)
    prior = sample_prior(4, 3, 2)

    report = ad.finite_difference_check(
        lambda: prior_matching_loss(lr, prior, disc), disc.named_params())
    assert report.passed, report.summary()


# -- gate and total loss -----------------------------------------------------------


def test_gate_starts_at_exactly_half():
    rng = np.random.default_rng(11)
    gate = LossWeightEstimator(4, 4)
    tf = make_features(rng)
    lr = make_labels(rng, count=6)
    assert gate(tf.pooled, lr).item() == 0.5


def test_gate_receives_gradients():
    rng = np.random.default_rng(12)
    gate = LossWeightEstimator(4, 4)
    tf = make_features(rng)
    lr = make_labels(rng, count=6)
    ad.backward(gate(tf.pooled, lr))
    assert np.abs(gate.w_text.grad).sum() > 0
    assert np.abs(gate.w_label.grad).sum() > 0
    assert gate.bias.grad is not None


def test_total_loss_identity_exact():
    rng = np.random.default_rng(13)
    for _ in range(50):
        l_c = Tensor(rng.uniform(0.01, 3.0))
        l_mi = Tensor(rng.uniform(0.01, 3.0))
        l_pr = Tensor(rng.uniform(0.01, 3.0))
        f = Tensor(rng.uniform(0.01, 0.99))
        total, bundle = total_loss(l_c, l_mi, l_pr, f)
        recomposed = bundle.l_c + bundle.f_weight * bundle.l_mi + (1 - bundle.f_weight) * bundle.l_pr
        assert abs(bundle.total - recomposed) <= 1e-12
        assert total.item() == bundle.total


def test_total_loss_ablation_weight_conventions():
    l_c, l_mi, l_pr = Tensor(1.0), Tensor(2.0), Tensor(3.0)

    total, bundle = total_loss(l_c, None, l_pr, None)
    assert bundle.f_weight == 0.0 and bundle.l_mi == 0.0
    assert total.item() == pytest.approx(4.0)

    total, bundle = total_loss(l_c, l_mi, None, None)
    assert bundle.f_weight == 1.0 and bundle.l_pr == 0.0
    assert total.item() == pytest.approx(3.0)

    total, bundle = total_loss(l_c, None, None, None)
    assert bundle.f_weight == 0.0
    assert total.item() == pytest.approx(1.0)


def test_total_loss_bundle_schema():
    _, bundle = total_loss(Tensor(1.0), None, None, None)
    assert set(bundle.to_dict()) == {"L", "L_c", "L_MI", "L_pr", "F"}


def test_total_loss_requires_gate_for_full_objective():
    with pytest.raises(ad.ContractError):
        total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), None)


def test_total_loss_rejects_nonfinite_terms():
    with pytest.raises(NumericError, match="L_c"):
        total_loss(Tensor(np.inf), None, None, None)
    with pytest.raises(NumericError, match="L_MI"):
        total_loss(Tensor(1.0), Tensor(np.nan), Tensor(1.0), Tensor(0.5))
