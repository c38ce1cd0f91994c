"""Text encoder, label structure encoder, and multi-label attention.

The text encoder is an embedding layer followed by parallel same-length
1-D convolutions (kernel widths 2/3/4 by default) whose channel outputs
concatenate to the token feature width; one op (`ad.token_conv`) computes
them from each distinct token's responses to the kernels.  Label
representations come from a two-layer graph convolution over the
normalized taxonomy adjacency, seeded from a learned per-label embedding
table.  Multi-label attention then pools token features once per label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import Batch


# With rng None the two initialisers below draw nothing and leave the values
# unset, for a caller that overwrites every one (a model rebuilt from a checkpoint).
def glorot(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int,
           fan_out: int) -> Tensor:
    if rng is None:
        return Tensor(np.empty(shape), requires_grad=True)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def embedding_table(rng: np.random.Generator | None, rows: int, dim: int) -> Tensor:
    if rng is None:
        return Tensor(np.empty((rows, dim)), requires_grad=True)
    return Tensor(rng.uniform(-0.1, 0.1, size=(rows, dim)), requires_grad=True)


def zeros_param(shape, fill: float = 0.0) -> Tensor:
    return Tensor(np.full(shape, fill, dtype=np.float64), requires_grad=True)


class TextFeatures:
    """A batch's token features [B, S, d_t], zero on masked positions
    (`ad.token_conv`), and its [B, S] 0/1 mask.

    `pooled`, their [B, d_t] mask-aware mean over S, is read only by the
    loss-weight gate, a training-only module, so it is computed when read:
    an inference pass never computes it.
    """

    def __init__(self, *, token_feats: Tensor, mask: np.ndarray, pooled: Tensor | None = None):
        self.token_feats = token_feats
        self.mask = mask
        self._pooled = pooled

    @property
    def pooled(self) -> Tensor:
        """The `pooled` the constructor was given, or else `ad.masked_mean` of
        the token features, computed at each read and never cached: a read
        under `no_grad` records no graph, and a later read must."""
        if self._pooled is not None:
            return self._pooled
        return ad.masked_mean(self.token_feats, self.mask)


@dataclass
class LabelRepresentations:
    matrix: Tensor           # [N, d_y], one row per non-root label in id order


@dataclass
class LabelAwareFeatures:
    matrix: Tensor           # [B, N, d_t]
    attention: Tensor        # [B, N, S], rows sum to 1, zero on masked slots


class TextEncoder:
    """Token embeddings plus parallel CNNs producing d_t features per token."""

    def __init__(self, vocab_size: int, embed_dim: int, feature_dim: int,
                 kernel_sizes: tuple[int, ...], rng: np.random.Generator):
        self.kernel_sizes = tuple(kernel_sizes)
        channels = feature_dim // len(kernel_sizes)
        self.embedding = embedding_table(rng, vocab_size, embed_dim)
        self.kernels = [
            glorot(rng, (k, embed_dim, channels), fan_in=k * embed_dim, fan_out=k * channels)
            for k in self.kernel_sizes
        ]
        self.biases = [zeros_param(channels) for _ in self.kernel_sizes]

    def named_params(self) -> dict[str, Tensor]:
        params = {"embedding": self.embedding}
        for k, kernel, bias in zip(self.kernel_sizes, self.kernels, self.biases):
            params[f"conv{k}.kernel"] = kernel
            params[f"conv{k}.bias"] = bias
        return params

    def responses(self) -> np.ndarray:
        """Every vocabulary token's convolution responses (`ad.token_responses`),
        for inference over many batches with the current parameters."""
        return ad.token_responses(self.embedding, self.kernels)

    def __call__(self, batch: Batch, responses: np.ndarray | None = None) -> TextFeatures:
        # Padding contributes nothing to the features and is zero in them: a
        # document's features must not depend on how wide its batch was padded.
        feats = ad.relu(ad.token_conv(self.embedding, self.kernels, self.biases,
                                      batch.token_ids, batch.mask, responses))
        return TextFeatures(token_feats=feats, mask=batch.mask)


class StructureEncoder:
    """Two graph-convolution layers over the label hierarchy.

    H1 = relu(A_hat @ H0 @ W0 + b0) over every taxonomy node, H0 a learned
    embedding per node; Y = A_hat[L] @ H1 @ W1 + b1 only at the rows L of
    the non-root nodes, in label id order: the label representations.
    """

    def __init__(self, adjacency: Tensor, nonroot_ids: list[int], label_dim: int,
                 rng: np.random.Generator):
        n_nodes = adjacency.shape[0]
        self.adjacency = adjacency
        self.label_rows = Tensor(adjacency.data[nonroot_ids])
        self.node_embedding = embedding_table(rng, n_nodes, label_dim)
        self.w0 = glorot(rng, (label_dim, label_dim), label_dim, label_dim)
        self.b0 = zeros_param(label_dim)
        self.w1 = glorot(rng, (label_dim, label_dim), label_dim, label_dim)
        self.b1 = zeros_param(label_dim)

    def named_params(self) -> dict[str, Tensor]:
        return {
            "node_embedding": self.node_embedding,
            "gcn0.weight": self.w0,
            "gcn0.bias": self.b0,
            "gcn1.weight": self.w1,
            "gcn1.bias": self.b1,
        }

    def __call__(self) -> LabelRepresentations:
        hidden = ad.relu(ad.matmul(ad.matmul(self.adjacency, self.node_embedding), self.w0, self.b0))
        out = ad.matmul(ad.matmul(self.label_rows, hidden), self.w1, self.b1)
        return LabelRepresentations(matrix=out)


def multi_label_attention(tf: TextFeatures, lr: LabelRepresentations) -> LabelAwareFeatures:
    """Per-label softmax attention over token positions.

    scores[b, j, s] = <token_feats[b, s], label[j]>, masked softmax over s,
    then a weighted sum of token features per label.
    """
    b, s, d = tf.token_feats.shape
    n = lr.matrix.shape[0]
    flat = ad.reshape(tf.token_feats, (b * s, d))
    scores = ad.reshape(ad.matmul(flat, ad.transpose(lr.matrix, (1, 0))), (b, s, n))
    scores = ad.transpose(scores, (0, 2, 1))  # [B, N, S]
    attention = ad.masked_softmax(scores, tf.mask[:, None, :], axis=2)
    context = ad.bmm(attention, tf.token_feats)
    return LabelAwareFeatures(matrix=context, attention=attention)
