"""Corpus ingestion, vocabulary, batching, and a synthetic corpus generator.

Corpus files are UTF-8 JSON-lines with fields `token` (array of strings)
and `label` (array of strings).  The generator builds a complete-tree
taxonomy whose documents are bags of per-label signature tokens, giving a
desk-scale corpus that is separable by construction yet supports label
imbalance through power-law leaf sampling.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import zlib
from collections import Counter
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .taxonomy import Taxonomy, parse_taxonomy, ROOT_TOKEN

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class DataError(ValueError):
    """Malformed corpus record or invalid batching input."""


class ConfigError(ValueError):
    """An invalid settings value, or an unknown settings key."""


def _is_int(value) -> bool:
    """A JSON integer: a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def _is_width(value) -> bool:
    return _is_int(value) and value >= 1


def _is_real(value) -> bool:
    """A finite JSON number (the comparison also rejects NaN and huge ints)."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# (predicate, description) pairs for the `KINDS` tables
_INTEGER = (_is_int, "an integer")
_POSITIVE = (_is_width, "a positive integer")
_REAL = (_is_real, "a finite number")

DEFAULT_SEED = 7      # gendata's --seed and TrainConfig.seed


class Settings:
    """Base of the settings dataclasses: each names its `SECTION` for
    messages and declares its `KINDS` table, the one place that says which
    keys it takes and of which kind.  A kind is a (predicate, description)
    pair or a nested `Settings` class.  An instance checks itself when made:
    every field against its kind, then `check()`'s rules that join keys.
    Each failure is a ConfigError; a wrong kind names `section.key`.  JSON
    writes tuples as arrays, so `from_dict(json.loads(json.dumps(s.to_dict())))`
    equals `s`."""

    def __post_init__(self):
        for name, kind in self.KINDS.items():
            value = getattr(self, name)
            ok, what = ((isinstance(value, kind), f"a {kind.SECTION} section")
                        if isinstance(kind, type) else (kind[0](value), kind[1]))
            if not ok:
                raise ConfigError(f"{self.SECTION}.{name} must be {what}, got {value!r}")
        self.check()

    def check(self):
        """Rules that join keys; none unless a class adds them."""

    @classmethod
    def from_dict(cls, values):
        """An instance from a JSON object; missing keys keep their defaults,
        lists become tuples and a nested section is read by its own class."""
        if not isinstance(values, dict):
            raise ConfigError(f"{cls.SECTION} must be a JSON object, got {values!r}")
        unknown = set(values) - set(cls.KINDS)
        if unknown:
            raise ConfigError(f"unknown {cls.SECTION} keys: {sorted(unknown)}")
        return cls(**{name: cls.KINDS[name].from_dict(value) if isinstance(cls.KINDS[name], type)
                      else tuple(value) if isinstance(value, list) else value
                      for name, value in values.items()})

    def to_dict(self) -> dict:
        return asdict(self)


def derived_rng(seed: int, *keys) -> np.random.Generator:
    """Deterministic sub-stream of a master seed, keyed by ints or strings."""
    entropy = [int(seed) & 0xFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            entropy.append(zlib.crc32(key.encode("utf-8")))
        else:
            entropy.append(int(key) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class Document:
    tokens: tuple[int, ...]
    labels: frozenset[int]


@dataclass
class Vocabulary:
    """Token -> dense id map with PAD=0 and UNK=1 reserved."""

    token_to_id: dict[str, int]

    def __post_init__(self):
        # ids 0..V-1, so UNK_ID and every id `encode` returns index the embedding table
        size, ids = len(self.token_to_id), self.token_to_id.values()
        if size < 2 or not all(map(_is_int, ids)) or set(ids) != set(range(size)):
            raise DataError(f"a vocabulary of {size} tokens must hold each integer id "
                            f"0..{size - 1} once, and at least PAD and UNK")

    def __len__(self):
        return len(self.token_to_id)

    def encode(self, tokens) -> tuple[int, ...]:
        return tuple(map(self.token_to_id.get, tokens, itertools.repeat(UNK_ID)))

    def to_json(self) -> dict:
        return dict(self.token_to_id)

    @classmethod
    def from_json(cls, mapping: dict) -> "Vocabulary":
        return cls(token_to_id={str(k): v for k, v in mapping.items()})


def build_vocab(docs) -> Vocabulary:
    """Count tokens over raw documents (lists of token strings); ids follow
    descending frequency (ties broken lexicographically) after PAD and UNK."""
    counts: Counter[str] = Counter()
    for tokens in docs:
        counts.update(tokens)
    kept = sorted(counts, key=lambda t: (-counts[t], t))
    mapping = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for tok in kept:
        mapping[tok] = len(mapping)
    return Vocabulary(mapping)


def _is_strings(value) -> bool:
    # str.join tests the elements in C; this runs on every token read
    if not isinstance(value, list):
        return False
    try:
        "".join(value)
    except TypeError:
        return False
    return True


def read_raw_corpus(path):
    """Yield (line_number, tokens, label field) for each JSON-lines document.

    A line must be UTF-8 text holding a JSON object whose `token` field is
    a non-empty list of strings; anything else is a DataError naming
    path:line.  Lines end at each newline.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise DataError(f"{path}:{lineno}: not UTF-8 text ({err.reason})") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataError(f"{path}:{lineno}: malformed JSON ({err.msg})") from None
            except RecursionError:
                raise DataError(f"{path}:{lineno}: malformed JSON (nested too deeply)") from None
            if not isinstance(record, dict):
                raise DataError(f"{path}:{lineno}: record is not a JSON object")
            tokens = record.get("token")
            if not tokens:
                raise DataError(f"{path}:{lineno}: document has no tokens")
            if not _is_strings(tokens):
                raise DataError(f"{path}:{lineno}: token field is not a list of strings")
            yield lineno, tokens, record.get("label")


def build_vocab_from_file(path) -> Vocabulary:
    return build_vocab(tokens for _, tokens, _ in read_raw_corpus(path))


def iter_corpus(path, vocab: Vocabulary, tax: Taxonomy):
    """Map a JSON-lines corpus into documents of token ids and label ids,
    one line at a time as they are read (`_documents`)."""
    return _documents(read_raw_corpus(path), path, vocab, tax)


def _documents(records, path, vocab: Vocabulary, tax: Taxonomy):
    """Map `read_raw_corpus` records of `path` into documents, one at a time.

    Unknown tokens become UNK; a missing, empty or non-list label field and
    unknown or root label names are data errors reported with the
    offending line number.
    """
    name_to_id = {name: i for i, name in enumerate(tax.labels)}
    for lineno, tokens, label_names in records:
        if not label_names:
            raise DataError(f"{path}:{lineno}: document has an empty label list")
        if not _is_strings(label_names):
            raise DataError(f"{path}:{lineno}: label field is not a list of strings")
        label_ids = set()
        for name in label_names:
            if name not in name_to_id:
                raise DataError(f"{path}:{lineno}: unknown label name {name!r}")
            if name_to_id[name] == tax.root:
                raise DataError(f"{path}:{lineno}: the root is not a valid document label")
            label_ids.add(name_to_id[name])
        yield Document(tokens=vocab.encode(tokens), labels=frozenset(label_ids))


def load_corpus(path, vocab: Vocabulary, tax: Taxonomy) -> list[Document]:
    """Every document of `iter_corpus`, as a list."""
    return list(iter_corpus(path, vocab, tax))


def load_training_corpus(path, tax: Taxonomy) -> tuple[Vocabulary, list[Document]]:
    """`build_vocab_from_file` and then `load_corpus` over it, from one read of
    the file: every line is decoded once, and every record check comes
    before any label check, as it does there."""
    records = list(read_raw_corpus(path))
    vocab = build_vocab(tokens for _, tokens, _ in records)
    return vocab, list(_documents(records, path, vocab, tax))


@dataclass
class Batch:
    """Padded token ids, validity mask, and multi-hot targets for B docs."""

    token_ids: np.ndarray  # int64 [B, S]
    mask: np.ndarray       # float64 0/1 [B, S]
    targets: np.ndarray    # float64 0/1 [B, N] over non-root labels

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


def make_batches(docs: list[Document], batch_size: int, max_len: int,
                 tax: Taxonomy, shuffle_seed: int | None = None,
                 drop_partial: bool = False) -> list[Batch]:
    """Truncate to max_len, pad per batch, and build multi-hot targets.

    A document with an empty label set gets an all-zero target row, which
    is how unlabeled documents are batched for prediction.  Shuffling is a
    pure function of the seed.  The final partial batch is dropped only
    when `drop_partial` is set (required while the mutual information loss
    is active, which pairs each document with another in the same batch).
    The sizes come from a `TrainConfig`, which has checked them.
    """
    target_col = tax.target_index()
    order = list(range(len(docs)))
    if shuffle_seed is not None:
        order = list(derived_rng(shuffle_seed, "batch-shuffle").permutation(len(docs)))

    batches = []
    for start in range(0, len(docs), batch_size):
        chunk = [docs[i] for i in order[start:start + batch_size]]
        if drop_partial and len(chunk) < batch_size:
            break
        token_rows = [doc.tokens[:max_len] for doc in chunk]
        width = max(len(r) for r in token_rows)
        ids = np.full((len(chunk), width), PAD_ID, dtype=np.int64)
        mask = np.zeros((len(chunk), width))
        targets = np.zeros((len(chunk), tax.num_labels))
        for row, (doc, kept) in enumerate(zip(chunk, token_rows)):
            ids[row, :len(kept)] = kept
            mask[row, :len(kept)] = 1.0
            for label_id in doc.labels:
                targets[row, target_col[label_id]] = 1.0
        batches.append(Batch(token_ids=ids, mask=mask, targets=targets))
    return batches


# -- synthetic corpus ---------------------------------------------------------


@dataclass
class GeneratorConfig(Settings):
    """Complete-tree synthetic corpus settings.

    Each label owns `vocab_per_label` signature tokens.  A document picks a
    leaf (power-law weighted by `imbalance_exponent`), takes the whole
    root-to-leaf path as its labels, and draws `doc_len` tokens from the
    path labels' signatures, replacing each with a uniformly random
    signature token with probability `noise_rate`.
    """

    depth: int = 3
    branching: int = 3
    vocab_per_label: int = 20
    docs_per_label: int = 185
    doc_len: int = 24
    imbalance_exponent: float = 0.0
    noise_rate: float = 0.1
    val_docs_per_label: int | None = None
    test_docs_per_label: int | None = None

    SECTION = "gendata"
    KINDS = {
        **dict.fromkeys(("depth", "vocab_per_label", "docs_per_label", "doc_len"), _POSITIVE),
        "branching": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
        "imbalance_exponent": (lambda v: _is_real(v) and v >= 0, "a non-negative number"),
        "noise_rate": (lambda v: _is_real(v) and 0 <= v <= 1, "a number in [0, 1]"),
        **dict.fromkeys(("val_docs_per_label", "test_docs_per_label"),
                        (lambda v: v is None or _is_count(v), "a non-negative integer or null")),
    }

    def resolved_val_docs(self) -> int:
        return self.val_docs_per_label if self.val_docs_per_label is not None else max(1, self.docs_per_label // 5)

    def resolved_test_docs(self) -> int:
        return self.test_docs_per_label if self.test_docs_per_label is not None else max(1, self.docs_per_label // 5)


def _complete_tree_lines(depth: int, branching: int) -> tuple[str, list[str]]:
    """Taxonomy text for a complete tree plus the leaf names."""
    lines = []
    frontier = [ROOT_TOKEN]
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            kids = [f"n{b}" if parent == ROOT_TOKEN else f"{parent}.{b}"
                    for b in range(branching)]
            lines.append("\t".join([parent] + kids))
            next_frontier.extend(kids)
        frontier = next_frontier
    return "\n".join(lines) + "\n", frontier


def _leaf_weights(n_leaves: int, exponent: float) -> np.ndarray:
    weights = (np.arange(1, n_leaves + 1, dtype=np.float64)) ** (-exponent)
    return weights / weights.sum()


def _signature_tokens(label: str, vocab_per_label: int) -> list[str]:
    return [f"{label}#w{k}" for k in range(vocab_per_label)]


def _sample_split(tax: Taxonomy, config: GeneratorConfig, rng: np.random.Generator,
                  n_docs: int) -> list[dict]:
    leaves = tax.leaves()
    weights = _leaf_weights(len(leaves), config.imbalance_exponent)
    all_tokens = []
    sig = {}
    for label_id in tax.nonroot_ids():
        sig[label_id] = _signature_tokens(tax.labels[label_id], config.vocab_per_label)
        all_tokens.extend(sig[label_id])

    records = []
    for _ in range(n_docs):
        leaf = leaves[rng.choice(len(leaves), p=weights)]
        path = tax.path_to_root(leaf)
        tokens = []
        for _ in range(config.doc_len):
            if rng.random() < config.noise_rate:
                tokens.append(all_tokens[rng.integers(len(all_tokens))])
            else:
                label_id = path[rng.integers(len(path))]
                vocab = sig[label_id]
                tokens.append(vocab[rng.integers(len(vocab))])
        records.append({"token": tokens, "label": [tax.labels[i] for i in sorted(path)]})
    return records


def generate_synthetic(config: GeneratorConfig, seed: int, out_dir) -> dict:
    """Write taxonomy.txt, {train,val,test}.jsonl, and manifest.json.

    Bit-reproducible for a fixed (config, seed); returns the manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tax_text, leaf_names = _complete_tree_lines(config.depth, config.branching)
    tax = parse_taxonomy(tax_text)
    n_leaves = len(leaf_names)

    splits = {
        "train": config.docs_per_label * n_leaves,
        "val": config.resolved_val_docs() * n_leaves,
        "test": config.resolved_test_docs() * n_leaves,
    }

    (out / "taxonomy.txt").write_text(tax_text, encoding="utf-8")
    paths = {"taxonomy": str(out / "taxonomy.txt")}
    for split, n_docs in splits.items():
        rng = derived_rng(seed, "synthetic", split)
        records = _sample_split(tax, config, rng, n_docs)
        path = out / f"{split}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        paths[split] = str(path)

    manifest = {
        "config": config.to_dict(),
        "seed": seed,
        "splits": {k: int(v) for k, v in splits.items()},
        "label_count": tax.num_labels,
        "node_count": tax.num_nodes,
        "depth": tax.depth,
        "avg_labels_per_doc": float(config.depth),
        "files": {k: file_sha256(v) for k, v in paths.items()},
        "paths": paths,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
