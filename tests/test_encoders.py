"""Text encoder, label structure encoder, and label-aware attention."""

import numpy as np

from gradcheck import finite_difference_check, sum_
from htcinfomax import autodiff as ad
from htcinfomax.dataio import Batch
from htcinfomax.encoders import (
    StructureEncoder,
    TextEncoder,
    multi_label_attention,
)
from htcinfomax.infomax import MIDiscriminator
from htcinfomax.taxonomy import normalized_adjacency, parse_taxonomy

TAX = parse_taxonomy("Root\ta\tb\na\ta1\ta2\nb\tb1\n")


def make_batch(rows, num_labels=5):
    width = max(len(r) for r in rows)
    ids = np.zeros((len(rows), width), dtype=np.int64)
    mask = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        ids[i, :len(row)] = row
        mask[i, :len(row)] = 1.0
    targets = np.zeros((len(rows), num_labels))
    return Batch(token_ids=ids, mask=mask, targets=targets)


def make_text_encoder(feature_dim=6, embed_dim=5, vocab=12, kernels=(2, 3, 4), seed=0):
    return TextEncoder(vocab, embed_dim, feature_dim, kernels, np.random.default_rng(seed))


def test_text_encoder_shapes():
    enc = make_text_encoder()
    batch = make_batch([[2, 3, 4], [5, 6]])
    tf = enc(batch)
    assert tf.token_feats.shape == (2, 3, 6)
    assert tf.pooled.shape == (2, 6)


def test_text_encoder_masks_padded_positions():
    enc = make_text_encoder()
    tf = enc(make_batch([[2, 3], [4, 5, 6, 7]]))
    assert np.allclose(tf.token_feats.data[0, 2:], 0.0)


def test_text_encoder_features_nonnegative_after_relu():
    enc = make_text_encoder()
    tf = enc(make_batch([[2, 3, 4]]))
    assert (tf.token_feats.data >= 0).all()


def test_text_encoder_pooled_is_mean_over_valid_positions():
    enc = make_text_encoder()
    tf = enc(make_batch([[2, 3, 4], [5, 6]]))
    manual = tf.token_feats.data[1, :2].mean(axis=0)
    assert np.allclose(tf.pooled.data[1], manual)


def test_text_encoder_padding_width_does_not_change_features():
    # same doc, alone vs padded next to a longer one
    enc = make_text_encoder()
    alone = enc(make_batch([[2, 3, 4]]))
    padded = enc(make_batch([[2, 3, 4], [5, 6, 7, 8, 9, 10]]))
    assert np.allclose(alone.token_feats.data[0], padded.token_feats.data[0, :3])
    assert np.allclose(alone.pooled.data[0], padded.pooled.data[0])


def test_mi_pool_text_padding_width_does_not_change_features():
    # the same 5-token doc padded to width 5 and to width 9; both batches
    # hold two docs so only the padding width differs between them
    enc = make_text_encoder()
    disc = MIDiscriminator(6, 6, 6, np.random.default_rng(1))
    doc = [2, 3, 4, 5, 6]
    narrow = enc(make_batch([doc, [7, 8, 9]]))
    wide = enc(make_batch([doc, [7, 8, 9, 10, 11, 2, 3, 4, 5]]))
    pooled_narrow = disc.pool_text(narrow.token_feats, narrow.mask).data[0]
    pooled_wide = disc.pool_text(wide.token_feats, wide.mask).data[0]
    assert np.array_equal(pooled_narrow, pooled_wide)


def test_text_encoder_vocabulary_table_matches_the_batch_table():
    # inference reads every token's responses from one table over the
    # vocabulary; training projects only the batch's unmasked tokens
    enc = make_text_encoder(vocab=12)
    batch = make_batch([[2, 3, 4, 3, 11], [5, 6], [7, 7, 7, 2]])
    per_batch = enc(batch)
    whole = enc(batch, enc.responses())
    for a, b in ((whole.token_feats, per_batch.token_feats), (whole.pooled, per_batch.pooled)):
        np.testing.assert_allclose(a.data, b.data, rtol=1e-12, atol=1e-12 * np.abs(b.data).max())
    assert enc.responses().shape == (2 + 3 + 4, 14, 2)       # tap-major: [sum of k, V + 2, C_out]


def test_text_encoder_param_names():
    enc = make_text_encoder()
    names = set(enc.named_params())
    assert names == {"embedding", "conv2.kernel", "conv2.bias",
                     "conv3.kernel", "conv3.bias", "conv4.kernel", "conv4.bias"}


def test_structure_encoder_matches_dense_gcn_oracle():
    rng = np.random.default_rng(1)
    enc = StructureEncoder(normalized_adjacency(TAX), TAX.nonroot_ids(), 4, rng)
    out = enc().matrix.data

    a_hat = normalized_adjacency(TAX).data
    h0 = enc.node_embedding.data
    h1 = np.maximum(a_hat @ h0 @ enc.w0.data + enc.b0.data, 0.0)
    full = a_hat @ h1 @ enc.w1.data + enc.b1.data
    assert np.allclose(out, full[TAX.nonroot_ids()])
    assert out.shape == (TAX.num_labels, 4)


def test_structure_encoder_mixes_neighbors():
    # zeroing one node's embedding still leaves its representation nonzero
    # because the adjacency propagates information from its neighbors
    rng = np.random.default_rng(2)
    enc = StructureEncoder(normalized_adjacency(TAX), TAX.nonroot_ids(), 4, rng)
    a1 = TAX.id_of("a1")
    enc.node_embedding.data[a1] = 0.0
    out = enc().matrix.data
    row = TAX.nonroot_ids().index(a1)
    assert np.abs(out[row]).sum() > 0


def test_attention_matches_manual_oracle():
    rng = np.random.default_rng(3)
    enc = make_text_encoder()
    struct = StructureEncoder(normalized_adjacency(TAX), TAX.nonroot_ids(), 6, rng)
    batch = make_batch([[2, 3, 4], [5, 6]])
    tf = enc(batch)
    lr = struct()
    laf = multi_label_attention(tf, lr)

    feats = tf.token_feats.data            # [B, S, d]
    labels = lr.matrix.data                # [N, d]
    b, s, d = feats.shape
    n = labels.shape[0]
    expected = np.zeros((b, n, d))
    for i in range(b):
        for j in range(n):
            scores = feats[i] @ labels[j]
            scores = np.where(batch.mask[i] > 0, scores, -np.inf)
            weights = np.exp(scores - scores[batch.mask[i] > 0].max())
            weights[batch.mask[i] == 0] = 0.0
            weights /= weights.sum()
            expected[i, j] = weights @ feats[i]
    assert np.allclose(laf.matrix.data, expected)
    assert laf.matrix.shape == (2, 5, 6)


def test_attention_ignores_padded_positions():
    enc = make_text_encoder()
    rng = np.random.default_rng(4)
    struct = StructureEncoder(normalized_adjacency(TAX), TAX.nonroot_ids(), 6, rng)
    batch = make_batch([[2, 3], [4, 5, 6, 7]])
    laf = multi_label_attention(enc(batch), struct())
    assert np.allclose(laf.attention.data[0, :, 2:], 0.0)
    assert np.allclose(laf.attention.data.sum(axis=2), 1.0)


def test_gradients_flow_through_full_encoder_stack():
    rng = np.random.default_rng(5)
    enc = TextEncoder(10, 4, 3, (2, 3, 4), rng)
    struct = StructureEncoder(normalized_adjacency(TAX), TAX.nonroot_ids(), 3, rng)
    batch = make_batch([[2, 3, 4], [5, 6]])
    params = {f"text.{k}": v for k, v in enc.named_params().items()}
    params.update({f"structure.{k}": v for k, v in struct.named_params().items()})

    def f():
        laf = multi_label_attention(enc(batch), struct())
        return sum_(ad.mul(laf.matrix, laf.matrix))

    report = finite_difference_check(f, params)
    assert report.passed, report.summary()
