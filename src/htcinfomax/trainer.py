"""Optimization loop, parameter registry, checkpointing, and evaluation.

One training step runs the whole forward pass (text encoder, structure
encoder, attention, predictor, and the active information maximization
losses), a single backward pass with the adversarial gradient routing
baked into the graph, global-norm gradient clipping, and one Adam update.
Fixed (seed, data, config) triples give bit-identical trajectories.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field, asdict, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import (_INTEGER, _REAL, Batch, DataError, Document, Vocabulary, _check_kinds,
                     _is_count, _is_width, derived_rng, make_batches)
from .encoders import (LabelRepresentations, StructureEncoder, TextEncoder, TextFeatures,
                       multi_label_attention)
from .infomax import (
    LossBundle,
    LossWeightEstimator,
    MIDiscriminator,
    NumericError,
    PriorDiscriminator,
    mi_loss,
    prior_matching_loss,
    sample_prior,
    total_loss,
)
from .predictor import Predictions, PredictorHead, bce_loss, macro_f1, micro_f1
from .taxonomy import Taxonomy, normalized_adjacency, parse_taxonomy, serialize_taxonomy

CHECKPOINT_MAGIC = b"HTCIMAX1"


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or architecturally incompatible checkpoint."""


def derive_seed(seed: int, *keys) -> int:
    """Stable integer sub-seed for a named stream."""
    return int(derived_rng(seed, *keys).integers(0, 2**31 - 1))


@dataclass
class ModelDims:
    """Layer widths; defaults give the full-scale configuration."""

    embed_dim: int = 300
    feature_dim: int = 300       # token feature width d_t
    label_dim: int = 300         # label representation width d_y
    text_kernels: tuple[int, ...] = (2, 3, 4)
    mi_hidden: int = 512
    mi_kernel: int = 3
    prior_hidden: tuple[int, int] = (1000, 200)

    def validate(self):
        if self.feature_dim != self.label_dim:
            raise ad.DimensionError("attention requires feature_dim == label_dim")
        if not self.text_kernels or self.feature_dim % len(self.text_kernels) != 0:
            raise ad.DimensionError("feature_dim must divide evenly across >= 1 text kernels")
        if len(self.prior_hidden) != 2:
            raise ad.DimensionError("prior_hidden must hold exactly two widths")

    @classmethod
    def from_dict(cls, d) -> "ModelDims":
        """Widths from a JSON object; ValueError on a non-object, an unknown key
        or a value that is not a positive integer (a list of them for tuples)."""
        if not isinstance(d, dict):
            raise ValueError(f"dims must be a JSON object, got {d!r}")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(d) - set(defaults)
        if unknown:
            raise ValueError(f"unknown dims keys: {sorted(unknown)}")
        out = {}
        for key, value in d.items():
            if isinstance(defaults[key], tuple):
                if not isinstance(value, (list, tuple)) or not all(map(_is_width, value)):
                    raise ValueError(f"dims.{key} must list positive integers, got {value!r}")
                value = tuple(value)
            elif not _is_width(value):
                raise ValueError(f"dims.{key} must be a positive integer, got {value!r}")
            out[key] = value
        return cls(**out)


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 7
    disable_mi: bool = False
    disable_label_prior: bool = False
    threshold: float = 0.5
    max_len: int = 64
    clip_norm: float = 5.0
    checkpoint_path: str | None = None
    log_path: str | None = None
    dims: ModelDims = field(default_factory=ModelDims)

    def validate(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 2 and not self.disable_mi:
            raise ValueError("batch_size must be >= 2 unless the MI loss is disabled")
        self.dims.validate()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dims"]["text_kernels"] = list(self.dims.text_kernels)
        d["dims"]["prior_hidden"] = list(self.dims.prior_hidden)
        return d

    @classmethod
    def from_dict(cls, d) -> "TrainConfig":
        """Settings from a JSON object; ValueError on a non-object, an unknown
        key or a value of the wrong kind (`_TRAIN_KINDS`, `ModelDims.from_dict`)."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        d = dict(d)
        dims = ModelDims.from_dict(d.pop("dims", {}))
        _check_kinds(d, _TRAIN_KINDS, ValueError)
        return cls(dims=dims, **d)


_OPTIONAL_PATH = (lambda v: v is None or isinstance(v, str), "a string or null")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_TRAIN_KINDS = {
    "epochs": (_is_count, "a non-negative integer"),
    "batch_size": (_is_width, "a positive integer"),
    "max_len": (_is_width, "a positive integer"),
    "seed": _INTEGER,
    "learning_rate": _REAL, "threshold": _REAL, "clip_norm": _REAL,
    "disable_mi": _FLAG, "disable_label_prior": _FLAG,
    "checkpoint_path": _OPTIONAL_PATH, "log_path": _OPTIONAL_PATH,
}


def _arena_zeros(size: int) -> np.ndarray:
    """A zeroed float64 vector whose first element sits on a 64-byte boundary."""
    raw = np.zeros(size + 7)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip:skip + size]


class ParamRegistry:
    """Ordered, uniquely named map of every trainable tensor, laid out once
    into an arena of flat vectors.

    `layout()` (called by `Model.__init__`, or by the first `Adam` or
    `clip_gradients` on a bare registry) copies every parameter into one
    flat `data` vector and rebinds its `data` to its block there, and sets
    its `grad_view` to the same block of a flat `grad` vector.  Blocks are
    padded to a multiple of 8 values, so each starts 64-byte aligned; the
    padding stays zero.  Parameters are registered before the layout.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._blocks: list[tuple[int, tuple[int, ...]]] = []    # (offset, shape) per parameter
        self.data: np.ndarray | None = None
        self.grad: np.ndarray | None = None

    def register(self, prefix: str, named: dict[str, Tensor]):
        if self.data is not None:
            raise ad.ContractError("cannot register parameters after the arena is laid out")
        for name, tensor in named.items():
            full = f"{prefix}.{name}"
            if full in self._params:
                raise ad.ContractError(f"duplicate parameter name {full!r}")
            self._params[full] = tensor

    def items(self):
        return self._params.items()

    def names(self) -> list[str]:
        return list(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def zero_grad(self):
        for p in self._params.values():
            p.grad = None

    def layout(self):
        """Lay the parameters out into the arena; later calls do nothing."""
        if self.data is not None:
            return
        offset = 0
        for name, p in self._params.items():
            if p.grad_view is not None:
                raise ad.ContractError(f"parameter {name!r} already lives in another registry")
            self._blocks.append((offset, p.shape))
            offset += -(-p.data.size // 8) * 8
        self.data, self.grad = _arena_zeros(offset), _arena_zeros(offset)
        for p, data, grad in zip(self._params.values(), self.views(self.data),
                                 self.views(self.grad)):
            data[...] = p.data
            p.data, p.grad_view = data, grad

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's block of an arena-sized vector, in registry order."""
        return [flat[offset:offset + math.prod(shape)].reshape(shape)
                for offset, shape in self._blocks]

    def gradients(self) -> np.ndarray:
        """The flat gradient vector, after copying in any gradient a caller
        assigned directly (`p.grad = array`) so it takes part too, and
        zeroing the block of any parameter without one, which may still
        hold an earlier step's values."""
        self.layout()
        for p in self._params.values():
            if p.grad is None:
                p.grad_view.fill(0.0)
            elif p.grad is not p.grad_view:
                np.copyto(p.grad_view, p.grad)
                p.grad = p.grad_view
        return self.grad


class Model:
    """Full classifier with the active information maximization parts.

    Components behind disabled ablation flags are not constructed, so the
    registry holds exactly the parameters the objective trains.
    """

    def __init__(self, tax: Taxonomy, vocab: Vocabulary, config: TrainConfig):
        config.validate()
        dims = config.dims
        self.tax = tax
        self.vocab = vocab
        self.config = config
        self.num_labels = tax.num_labels

        seed = config.seed
        self.text_encoder = TextEncoder(len(vocab), dims.embed_dim, dims.feature_dim,
                                        dims.text_kernels, derived_rng(seed, "init", "text"))
        self.structure_encoder = StructureEncoder(normalized_adjacency(tax), tax.nonroot_ids(),
                                                  dims.label_dim, derived_rng(seed, "init", "structure"))
        self.head = PredictorHead(self.num_labels, dims.feature_dim,
                                  derived_rng(seed, "init", "head"), threshold=config.threshold)
        self.mi_disc = None
        self.prior_disc = None
        self.gate = None
        if not config.disable_mi:
            self.mi_disc = MIDiscriminator(dims.feature_dim, dims.label_dim, dims.mi_hidden,
                                           derived_rng(seed, "init", "mi"), kernel_size=dims.mi_kernel)
        if not config.disable_label_prior:
            self.prior_disc = PriorDiscriminator(dims.label_dim, dims.prior_hidden,
                                                 derived_rng(seed, "init", "prior"))
        if self.mi_disc is not None and self.prior_disc is not None:
            self.gate = LossWeightEstimator(dims.feature_dim, dims.label_dim)

        self.registry = ParamRegistry()
        self.registry.register("text", self.text_encoder.named_params())
        self.registry.register("structure", self.structure_encoder.named_params())
        self.registry.register("head", self.head.named_params())
        if self.mi_disc is not None:
            self.registry.register("mi", self.mi_disc.named_params())
        if self.prior_disc is not None:
            self.registry.register("prior", self.prior_disc.named_params())
        if self.gate is not None:
            self.registry.register("gate", self.gate.named_params())
        self.registry.layout()

    def forward(self, batch: Batch, lr: LabelRepresentations | None = None
                ) -> tuple[TextFeatures, LabelRepresentations, Predictions]:
        """The pass shared by training and inference.

        The label representations depend on no document, so inference over
        many batches computes them once (`lr`); None computes them here.
        """
        tf = self.text_encoder(batch)
        if lr is None:
            lr = self.structure_encoder()
        return tf, lr, self.head(multi_label_attention(tf, lr))

    def losses(self, batch: Batch, prior_seed: int) -> tuple[Tensor, LossBundle]:
        tf, lr, preds = self.forward(batch)
        l_c = bce_loss(preds.logits, batch.targets)
        l_mi = mi_loss(tf, lr, batch.targets, self.mi_disc) if self.mi_disc else None
        l_pr = None
        if self.prior_disc is not None:
            prior = sample_prior(self.num_labels, self.config.dims.label_dim, prior_seed)
            l_pr = prior_matching_loss(lr, prior, self.prior_disc)
        f_weight = self.gate(tf.pooled, lr) if self.gate is not None else None
        return total_loss(l_c, l_mi, l_pr, f_weight)

    def predict(self, batch: Batch, lr: LabelRepresentations | None = None) -> Predictions:
        return self.forward(batch, lr)[2]


ADAM_CHUNK = 32768     # values per chunk: the working set of one chunk stays in cache


class Adam:
    """Adam with bias correction and one step count `t` for all parameters.

    The moments are two flat vectors laid out like the registry's arena;
    `state[name]` holds views of them.  `step` updates the whole arena in
    place, a chunk at a time, through the two halves of a scratch vector.
    """

    def __init__(self, registry: ParamRegistry, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        registry.layout()
        self.registry = registry
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = _arena_zeros(registry.data.size)
        self.v = _arena_zeros(registry.data.size)
        self.state = {name: {"m": m, "v": v} for name, m, v in
                      zip(registry.names(), registry.views(self.m), registry.views(self.v))}
        self._scratch = np.empty(2 * min(registry.data.size, ADAM_CHUNK))
        self._chunks = self._chunk_views()

    def step(self):
        for name, p in self.registry.items():
            if p.grad is None:
                raise ad.ContractError(f"missing gradient for parameter {name!r}")
        self.registry.gradients()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # Kingma & Ba's efficient form: with c1 = 1 - b1^t and c2 = 1 - b2^t,
        #   lr * (m / c1) / (sqrt(v / c2) + eps) = step * m / (sqrt(v) + eps_hat)
        # for step = lr * sqrt(c2) / c1 and eps_hat = eps * sqrt(c2)
        root_c2 = math.sqrt(1.0 - b2 ** self.t)
        step, eps_hat = self.lr * root_c2 / (1.0 - b1 ** self.t), self.eps * root_c2
        for data, g, m, v, a, b in self._chunks:
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - b2, out=a)
            np.add(v, a, out=v)
            # data -= step * (m / (sqrt(v) + eps_hat))
            np.sqrt(v, out=a)
            np.add(a, eps_hat, out=a)
            np.divide(m, a, out=b)
            np.multiply(b, step, out=b)
            np.subtract(data, b, out=data)
        self.registry.zero_grad()
        # Once a step allocates nothing long-lived, glibc trims the top of the
        # heap when the step's graph is freed, and the next backward faults
        # those pages back in (12.8k minor faults, 50 MB, per default-dims
        # step).  The scratch vector keeps the heap top in use: a fresh one,
        # made while the graph is alive, replaces it when it lies higher,
        # above the graph; otherwise it is freed at once.  Keeping the first
        # step's scratch pins nothing when a caller holds that step's graph,
        # and a fresh one every step pins every other step only, each landing
        # in the hole its predecessor's predecessor left.
        fresh = np.empty(self._scratch.size)
        if fresh.ctypes.data > self._scratch.ctypes.data:
            self._scratch = fresh
            self._chunks = self._chunk_views()

    def _chunk_views(self) -> list[tuple[np.ndarray, ...]]:
        """(data, grad, m, v, a, b) views of each chunk of the arena; a and b
        are the two halves of the scratch vector."""
        half = self._scratch.size // 2
        flats = (self.registry.data, self.registry.grad, self.m, self.v)
        chunks = []
        for lo in range(0, self.registry.data.size, ADAM_CHUNK):
            views = tuple(flat[lo:lo + ADAM_CHUNK] for flat in flats)
            n = views[0].size
            chunks.append(views + (self._scratch[:n], self._scratch[half:half + n]))
        return chunks


def clip_gradients(registry: ParamRegistry, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Raises NumericError, before any gradient is scaled, when the sum of
    squares is not finite: some gradient holds a NaN or an infinity, or
    the squares of finite values overflow.
    """
    grad = registry.gradients()
    with np.errstate(over="ignore"):      # an overflow is reported below, as NumericError
        total = float(grad @ grad)
    if not math.isfinite(total):
        for name, p in registry.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericError(f"gradient of parameter {name!r} is not finite")
        raise NumericError(f"the gradients' sum of squares overflowed to {total} "
                           f"although every gradient is finite")
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        grad *= max_norm / norm
    return norm


def train_step(batch: Batch, model: Model, optimizer: Adam, global_step: int) -> LossBundle:
    """One forward/backward/update cycle; returns the loss scalars."""
    prior_seed = derive_seed(model.config.seed, "prior", global_step)
    total, bundle = model.losses(batch, prior_seed)
    model.registry.zero_grad()
    ad.backward(total)
    clip_gradients(model.registry, model.config.clip_norm)
    optimizer.step()
    return bundle


def evaluate(batches: list[Batch], model: Model) -> dict:
    """Pooled micro/macro F1 plus mean classification loss; mutates nothing."""
    if not batches:
        raise DataError("evaluate called with an empty dataset")
    all_decisions = []
    all_targets = []
    loss_sum = 0.0
    cell_count = 0
    with ad.no_grad():
        lr = model.structure_encoder()
        for batch in batches:
            preds = model.predict(batch, lr)
            all_decisions.append(preds.decisions)
            all_targets.append(batch.targets)
            loss_sum += bce_loss(preds.logits, batch.targets).item() * batch.targets.size
            cell_count += batch.targets.size
    decisions = np.concatenate(all_decisions, axis=0)
    targets = np.concatenate(all_targets, axis=0)
    return {
        "micro_f1": micro_f1(decisions, targets),
        "macro_f1": macro_f1(decisions, targets),
        "L_c": loss_sum / cell_count,
    }


@dataclass
class TrainResult:
    model: Model
    optimizer: Adam
    records: list[dict]
    global_step: int
    epochs_completed: int


def run_training(train_docs: list[Document], val_docs: list[Document], tax: Taxonomy,
                 vocab: Vocabulary, config: TrainConfig,
                 resume_from: str | None = None,
                 stop_when=None, log_stream=None, on_step=None) -> TrainResult:
    """Train for config.epochs, logging one JSON record per epoch.

    `stop_when(record)` may end training early (used by calibration runs);
    `on_step(bundle)` observes every step's loss scalars; `resume_from`
    restores parameters, optimizer state, and progress from a checkpoint
    so a split run reproduces an uninterrupted one.
    """
    config.validate()
    for split, docs in (("training", train_docs), ("validation", val_docs)):
        if any(not doc.labels for doc in docs):
            raise DataError(f"{split} document with an empty label set")
    model = Model(tax, vocab, config)
    optimizer = Adam(model.registry, config.learning_rate)
    start_epoch = 0
    global_step = 0
    if resume_from is not None:
        start_epoch, global_step = restore_checkpoint(resume_from, model, optimizer)

    mi_enabled = not config.disable_mi
    val_batches = make_batches(val_docs, config.batch_size, config.max_len, tax) if val_docs else []
    records: list[dict] = []
    epochs_completed = start_epoch
    log_fh = open(config.log_path, "a", encoding="utf-8") if config.log_path else None
    try:
        for epoch in range(start_epoch, config.epochs):
            tick = time.perf_counter()
            batches = make_batches(train_docs, config.batch_size, config.max_len, tax,
                                   shuffle_seed=derive_seed(config.seed, "shuffle", epoch),
                                   drop_partial=mi_enabled)
            sums = {"L": 0.0, "L_c": 0.0, "L_MI": 0.0, "L_pr": 0.0, "F": 0.0}
            for batch in batches:
                bundle = train_step(batch, model, optimizer, global_step)
                global_step += 1
                if on_step is not None:
                    on_step(bundle)
                for key, value in bundle.to_dict().items():
                    sums[key] += value
            steps = max(len(batches), 1)
            record = {"epoch": epoch}
            record.update({k: v / steps for k, v in sums.items()})
            if val_batches:
                val = evaluate(val_batches, model)
                record.update({"micro_f1": val["micro_f1"], "macro_f1": val["macro_f1"],
                               "val_L_c": val["L_c"]})
            else:
                record.update({"micro_f1": None, "macro_f1": None})
            record["wall_time_s"] = round(time.perf_counter() - tick, 3)
            records.append(record)
            line = json.dumps(record, sort_keys=True)
            if log_fh:
                log_fh.write(line + "\n")
                log_fh.flush()
            if log_stream:
                print(line, file=log_stream, flush=True)
            epochs_completed = epoch + 1
            if stop_when is not None and stop_when(record):
                break
    finally:
        if log_fh:
            log_fh.close()

    if config.checkpoint_path:
        save_checkpoint(config.checkpoint_path, model, optimizer,
                        epochs_completed=epochs_completed, global_step=global_step)
    return TrainResult(model=model, optimizer=optimizer, records=records,
                       global_step=global_step, epochs_completed=epochs_completed)


# -- persistence ----------------------------------------------------------------


def save_checkpoint(path, model: Model, optimizer: Adam | None = None,
                    epochs_completed: int = 0, global_step: int = 0):
    """Self-describing versioned binary: JSON header + little-endian doubles.

    The header stores the resolved config, seed, vocabulary, serialized
    taxonomy, parameter names/shapes, and optimizer step counts; the body
    stores each parameter's values and, when an optimizer is given, its
    first and second moments.
    """
    names = model.registry.names()
    header = {
        "format": "htcinfomax-checkpoint",
        "version": 1,
        "seed": model.config.seed,
        "config": model.config.to_dict(),
        "progress": {"epochs_completed": epochs_completed, "global_step": global_step},
        "vocab": model.vocab.to_json(),
        "taxonomy": serialize_taxonomy(model.tax),
        "params": [{"name": n, "shape": list(model.registry[n].shape)} for n in names],
        "adam": {n: optimizer.t for n in names} if optimizer else None,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            # each write copies nothing when the array is C-ordered little-endian float64
            fh.write(np.ascontiguousarray(model.registry[name].data, dtype="<f8"))
            if optimizer is not None:
                fh.write(np.ascontiguousarray(optimizer.state[name]["m"], dtype="<f8"))
                fh.write(np.ascontiguousarray(optimizer.state[name]["v"], dtype="<f8"))


def read_checkpoint(path) -> dict:
    """Read and validate a checkpoint: the one parser of the format.

    Returns {header, params, adam_m, adam_v}.  The arrays are read-only
    views into one buffer over the file, so a caller copies what it keeps.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from None
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic or version)")
    body_start = 16 + int.from_bytes(blob[8:16], "little")
    if len(blob) < body_start:
        raise CheckpointError(f"{path} is truncated inside the header")
    try:
        header = json.loads(blob[16:body_start].decode("utf-8"))
        if header.get("version") != 1:
            raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")
        layout = [(entry["name"], tuple(entry["shape"])) for entry in header["params"]]
        names = [name for name, _ in layout]
        if not all(isinstance(name, str) for name in names) or len(set(names)) != len(names):
            raise ValueError("parameter names must be distinct strings")
        # positive extents are each at most their block's size, which the body bounds
        if not all(_is_width(n) for _, shape in layout for n in shape):
            raise ValueError("a parameter shape is not a list of positive integers")
        progress, adam = header["progress"], header["adam"]
        if not (isinstance(progress, dict) and _is_count(progress.get("epochs_completed"))
                and _is_count(progress.get("global_step"))):
            raise ValueError("progress must hold two non-negative integer counts")
        if adam is not None and not (isinstance(adam, dict) and set(adam) == set(names) and all(
                map(_is_count, adam.values())) and len(set(adam.values())) == 1):
            raise ValueError("adam must map exactly the parameter names to one step count")
    except (ValueError, AttributeError, KeyError, TypeError) as err:
        raise CheckpointError(f"{path} has a corrupt header: {err!r}") from None
    blocks = 1 if adam is None else 3
    counts = [math.prod(shape) for _, shape in layout]
    expected, actual = 8 * blocks * sum(counts), len(blob) - body_start
    if actual < expected:
        raise CheckpointError(f"{path} is truncated or has a corrupt header: the header "
                              f"describes {expected} body bytes, the file holds {actual}")
    if actual > expected:
        raise CheckpointError(f"{path} has {actual - expected} trailing bytes after its last block")
    body = np.frombuffer(blob, dtype="<f8", offset=body_start)
    stores: tuple[dict[str, np.ndarray], ...] = ({}, {}, {})
    offset = 0
    for (name, shape), count in zip(layout, counts):
        for store in stores[:blocks]:
            store[name] = body[offset:offset + count].reshape(shape)
            offset += count
    return {"header": header, "params": stores[0], "adam_m": stores[1], "adam_v": stores[2]}


def _apply_checkpoint(data: dict, model: Model, optimizer: Adam | None) -> tuple[int, int]:
    """Copy what `read_checkpoint` returned into a live model (and optimizer)."""
    stored = set(data["params"])
    live = set(model.registry.names())
    for name in sorted(stored - live):
        raise CheckpointError(f"checkpoint parameter {name!r} does not exist in this model")
    for name in sorted(live - stored):
        raise CheckpointError(f"model parameter {name!r} missing from checkpoint")
    for name, values in data["params"].items():
        target = model.registry[name]
        if values.shape != target.shape:
            raise CheckpointError(
                f"shape mismatch for parameter {name!r}: checkpoint {values.shape} vs model {target.shape}")
        target.data[...] = values
    header = data["header"]
    if optimizer is not None and header["adam"] is not None:
        for name, state in optimizer.state.items():
            state["m"][...] = data["adam_m"][name]
            state["v"][...] = data["adam_v"][name]
        optimizer.t = next(iter(header["adam"].values()))
    return header["progress"]["epochs_completed"], header["progress"]["global_step"]


def restore_checkpoint(path, model: Model, optimizer: Adam | None = None) -> tuple[int, int]:
    """Load parameter values (and optimizer state) into an existing model.

    Returns (epochs_completed, global_step).  Name or shape disagreements
    raise CheckpointError identifying the parameter.
    """
    return _apply_checkpoint(read_checkpoint(path), model, optimizer)


def load_model(path) -> Model:
    """Rebuild a model purely from a checkpoint (config, vocab, taxonomy), read once."""
    data = read_checkpoint(path)
    header = data["header"]
    try:
        config = TrainConfig.from_dict(header["config"])
        tax = parse_taxonomy(header["taxonomy"])
        vocab = Vocabulary.from_json(header["vocab"])
    except (ValueError, AttributeError, KeyError, TypeError) as err:
        raise CheckpointError(f"{path} has a malformed header: {err!r}") from None
    model = Model(tax, vocab, config)
    _apply_checkpoint(data, model, None)
    return model
