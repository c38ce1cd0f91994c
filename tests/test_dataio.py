"""Corpus IO, vocabulary, batching, and the synthetic generator."""

import json

import numpy as np
import pytest

from htcinfomax import autodiff as ad
from htcinfomax import dataio
from htcinfomax.dataio import (
    PAD_ID,
    UNK_ID,
    ConfigError,
    DataError,
    Document,
    GeneratorConfig,
    Vocabulary,
    build_vocab,
    derived_rng,
    generate_synthetic,
    load_corpus,
    make_batches,
)
from htcinfomax.taxonomy import parse_taxonomy

TAX = parse_taxonomy("Root\ta\tb\na\ta1\ta2\nb\tb1\n")


def write_corpus(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


# -- rng derivation ---------------------------------------------------------------


def test_derived_rng_is_reproducible_and_keyed():
    a = derived_rng(7, "shuffle", 3).integers(0, 1000, 5)
    b = derived_rng(7, "shuffle", 3).integers(0, 1000, 5)
    c = derived_rng(7, "shuffle", 4).integers(0, 1000, 5)
    d = derived_rng(8, "shuffle", 3).integers(0, 1000, 5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derived_rng_distinguishes_string_keys():
    a = derived_rng(7, "prior", 0).integers(0, 10**9)
    b = derived_rng(7, "shuffle", 0).integers(0, 10**9)
    assert a != b


# -- vocabulary -------------------------------------------------------------------


def test_build_vocab_orders_by_frequency_then_token():
    docs = [["b", "a", "a"], ["c", "a", "b"]]
    vocab = build_vocab(docs)
    assert vocab.encode(["a", "b", "c", "zzz"]) == (2, 3, 4, UNK_ID)  # after PAD and UNK
    assert vocab.encode(iter(["zzz", "a"])) == (UNK_ID, 2)


def test_vocab_round_trips_through_json():
    vocab = build_vocab([["x", "y"]])
    again = Vocabulary.from_json(json.loads(json.dumps(vocab.to_json())))
    assert again.token_to_id == vocab.token_to_id


@pytest.mark.parametrize("mapping", [
    {"<pad>": 0, "<unk>": 1, "a": 3},        # past the table: no id 2
    {"<pad>": 0, "<unk>": 1, "a": -1},
    {"<pad>": 0, "<unk>": 1, "a": 1},        # two tokens share an id
    {"<pad>": 0},                            # no UNK
    {},
    {"<pad>": 0, "<unk>": "1"},              # ids of another kind, which int() would take
    {"<pad>": 0, "<unk>": True},
    {"<pad>": 0, "<unk>": 1, "a": 2.9},
])
def test_vocabulary_ids_must_be_exactly_0_to_size_minus_1(mapping):
    with pytest.raises(DataError, match="vocabulary"):
        Vocabulary(mapping)
    with pytest.raises(DataError, match="vocabulary"):
        Vocabulary.from_json(mapping)


# -- corpus loading ---------------------------------------------------------------


def test_load_corpus_maps_tokens_and_labels(tmp_path):
    path = write_corpus(tmp_path, [{"token": ["hello", "world"], "label": ["a", "a1"]}])
    vocab = build_vocab([["hello", "world"]])
    docs = load_corpus(path, vocab, TAX)
    assert len(docs) == 1
    assert docs[0].tokens == (vocab.token_to_id["hello"], vocab.token_to_id["world"])
    assert docs[0].labels == frozenset({TAX.id_of("a"), TAX.id_of("a1")})


def test_load_corpus_unknown_token_becomes_unk(tmp_path):
    path = write_corpus(tmp_path, [{"token": ["mystery"], "label": ["b"]}])
    docs = load_corpus(path, build_vocab([["known"]]), TAX)
    assert docs[0].tokens == (UNK_ID,)


@pytest.mark.parametrize("record,message", [
    ({"token": [], "label": ["a"]}, "no tokens"),
    ({"token": ["x"], "label": []}, "empty label"),
    ({"token": ["x"], "label": ["nope"]}, "unknown label"),
    ({"token": ["x"], "label": ["Root"]}, "root"),
    ([1, 2], "not a JSON object"),
    ({"token": "xyz", "label": ["a"]}, "token field"),
    ({"token": ["x", 3], "label": ["a"]}, "token field"),
    ({"token": ["x"], "label": "a"}, "label field"),
])
def test_load_corpus_rejects_bad_records_with_line_number(tmp_path, record, message):
    path = write_corpus(tmp_path, [{"token": ["ok"], "label": ["a"]}, record])
    with pytest.raises(DataError) as err:
        load_corpus(path, build_vocab([["ok", "x"]]), TAX)
    assert ":2:" in str(err.value)
    assert message.split()[0] in str(err.value).lower()


def test_build_vocab_from_file_shares_the_record_check(tmp_path):
    path = write_corpus(tmp_path, [{"token": ["ok"]}, {"token": "xyz"}])
    with pytest.raises(DataError, match=":2: token field"):
        dataio.build_vocab_from_file(path)


def test_load_training_corpus_decodes_each_line_once(tmp_path, monkeypatch):
    # the vocabulary and documents of build_vocab_from_file then load_corpus,
    # from one read of the file
    records = [{"token": ["b", "a", "a"], "label": ["a", "a1"]}, {"token": ["c", "a"], "label": ["b"]}]
    path = write_corpus(tmp_path, records)
    expected = dataio.build_vocab_from_file(path)
    expected_docs = load_corpus(path, expected, TAX)
    decoded = []
    original = json.loads
    monkeypatch.setattr(dataio.json, "loads", lambda line: decoded.append(line) or original(line))
    vocab, docs = dataio.load_training_corpus(path, TAX)
    assert vocab.token_to_id == expected.token_to_id and docs == expected_docs
    assert len(decoded) == len(records)


def test_load_training_corpus_reports_a_record_error_before_any_label_error(tmp_path):
    path = write_corpus(tmp_path, [{"token": ["x"], "label": ["nope"]}, {"token": "xyz"}])
    with pytest.raises(DataError, match=":2: token field"):
        dataio.load_training_corpus(path, TAX)


def test_malformed_json_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"token": ["x"], "label": ["a"]}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError, match=":2:"):
        load_corpus(path, build_vocab([["x"]]), TAX)


# -- batching ---------------------------------------------------------------------


def docs_of_lengths(lengths):
    a1 = TAX.id_of("a1")
    return [Document(tokens=tuple(range(2, 2 + n)), labels=frozenset({a1})) for n in lengths]


def test_make_batches_leaves_a_document_with_no_tokens_to_the_mean_pooling():
    # a corpus file cannot hold one (read_raw_corpus refuses it); one built
    # in code becomes a fully masked row, which mean pooling refuses
    (batch,) = make_batches(docs_of_lengths([3, 0]), 2, 8, TAX)
    assert batch.mask.sum(axis=1).tolist() == [3.0, 0.0]
    with pytest.raises(ad.DomainError, match="fully masked"):
        ad.masked_mean(ad.Tensor(np.zeros((2, 3, 1))), batch.mask)


def test_make_batches_unlabeled_document_gets_zero_targets():
    docs = docs_of_lengths([2]) + [Document(tokens=(2, 3, 4), labels=frozenset())]
    (batch,) = make_batches(docs, 2, 16, TAX)
    assert batch.targets[0].sum() == 1.0
    assert np.array_equal(batch.targets[1], np.zeros(TAX.num_labels))
    assert np.array_equal(batch.mask[1], [1.0, 1.0, 1.0])


def test_make_batches_pads_to_batch_max_and_masks():
    batches = make_batches(docs_of_lengths([3, 5]), 2, 16, TAX)
    (batch,) = batches
    assert batch.token_ids.shape == (2, 5)
    assert batch.token_ids[0, 3] == PAD_ID
    assert np.array_equal(batch.mask, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])


def test_make_batches_truncates_to_max_len():
    (batch,) = make_batches(docs_of_lengths([9]), 1, 4, TAX)
    assert batch.token_ids.shape == (1, 4)
    assert batch.mask.sum() == 4


def test_make_batches_multi_hot_targets():
    a, a1 = TAX.id_of("a"), TAX.id_of("a1")
    docs = [Document(tokens=(2,), labels=frozenset({a, a1}))]
    (batch,) = make_batches(docs, 1, 8, TAX)
    index = TAX.target_index()
    expected = np.zeros(TAX.num_labels)
    expected[index[a]] = 1.0
    expected[index[a1]] = 1.0
    assert np.array_equal(batch.targets[0], expected)


def test_make_batches_shuffle_is_pure_function_of_seed():
    docs = docs_of_lengths(range(2, 12))
    a = make_batches(docs, 3, 16, TAX, shuffle_seed=5)
    b = make_batches(docs, 3, 16, TAX, shuffle_seed=5)
    c = make_batches(docs, 3, 16, TAX, shuffle_seed=6)
    flat = lambda bs: [row for batch in bs for row in batch.token_ids.tolist()]
    assert flat(a) == flat(b)
    assert flat(a) != flat(c)


def test_make_batches_drop_partial():
    docs = docs_of_lengths([3, 3, 3, 3, 3])
    full = make_batches(docs, 2, 8, TAX)
    dropped = make_batches(docs, 2, 8, TAX, drop_partial=True)
    assert sum(b.size for b in full) == 5
    assert sum(b.size for b in dropped) == 4
    assert all(b.size == 2 for b in dropped)


# -- synthetic generator ----------------------------------------------------------


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(depth=0)
    with pytest.raises(ConfigError):
        GeneratorConfig(branching=1)
    with pytest.raises(ConfigError):
        GeneratorConfig(noise_rate=1.5)
    with pytest.raises(ConfigError):
        GeneratorConfig(imbalance_exponent=-1.0)


def test_generate_synthetic_is_bit_reproducible(tmp_path):
    cfg = GeneratorConfig(depth=2, branching=2, vocab_per_label=4, docs_per_label=6, doc_len=6)
    m1 = generate_synthetic(cfg, 11, tmp_path / "one")
    m2 = generate_synthetic(cfg, 11, tmp_path / "two")
    assert m1["files"] == m2["files"]
    m3 = generate_synthetic(cfg, 12, tmp_path / "three")
    assert m1["files"] != m3["files"]


def test_generate_synthetic_labels_are_root_to_leaf_paths(tmp_path):
    cfg = GeneratorConfig(depth=3, branching=2, vocab_per_label=4, docs_per_label=3, doc_len=6)
    generate_synthetic(cfg, 5, tmp_path)
    tax = parse_taxonomy((tmp_path / "taxonomy.txt").read_text(encoding="utf-8"))
    with open(tmp_path / "train.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            assert len(rec["label"]) == 3
            ids = [tax.id_of(n) for n in rec["label"]]
            deepest = max(ids, key=lambda i: len(tax.path_to_root(i)))
            assert sorted(tax.path_to_root(deepest)) == sorted(ids)


def test_generate_synthetic_tokens_come_from_path_signatures(tmp_path):
    cfg = GeneratorConfig(depth=2, branching=2, vocab_per_label=4, docs_per_label=4,
                          doc_len=10, noise_rate=0.0)
    generate_synthetic(cfg, 5, tmp_path)
    with open(tmp_path / "train.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            owners = {t.split("#")[0] for t in rec["token"]}
            assert owners <= set(rec["label"])


def test_generate_synthetic_tree_shape_and_counts(tmp_path):
    cfg = GeneratorConfig(depth=3, branching=3, vocab_per_label=2, docs_per_label=2, doc_len=4)
    manifest = generate_synthetic(cfg, 7, tmp_path)
    # complete 3-ary tree of depth 3: 1 + 3 + 9 + 27 nodes
    assert manifest["node_count"] == 40
    assert manifest["label_count"] == 39
    assert manifest["depth"] == 3
    assert manifest["splits"]["train"] == 2 * 27
    assert manifest["avg_labels_per_doc"] == 3.0


def test_generate_synthetic_manifest_hashes_match_files(tmp_path):
    cfg = GeneratorConfig(depth=2, branching=2, vocab_per_label=3, docs_per_label=2, doc_len=4)
    manifest = generate_synthetic(cfg, 3, tmp_path)
    for name, digest in manifest["files"].items():
        assert dataio.file_sha256(manifest["paths"][name]) == digest


def test_leaf_weights_power_law():
    w = dataio._leaf_weights(4, 0.0)
    assert np.allclose(w, 0.25)
    w = dataio._leaf_weights(3, 1.5)
    raw = np.array([1.0, 2.0 ** -1.5, 3.0 ** -1.5])
    assert np.allclose(w, raw / raw.sum())
    assert w[0] > w[1] > w[2]


def test_imbalanced_corpus_skews_leaf_frequencies(tmp_path):
    cfg = GeneratorConfig(depth=2, branching=3, vocab_per_label=3, docs_per_label=30,
                          doc_len=4, imbalance_exponent=2.0)
    generate_synthetic(cfg, 9, tmp_path)
    tax = parse_taxonomy((tmp_path / "taxonomy.txt").read_text(encoding="utf-8"))
    leaf_names = [tax.labels[i] for i in tax.leaves()]
    counts = dict.fromkeys(leaf_names, 0)
    with open(tmp_path / "train.jsonl", encoding="utf-8") as fh:
        for line in fh:
            for name in json.loads(line)["label"]:
                if name in counts:
                    counts[name] += 1
    ordered = sorted(counts.values(), reverse=True)
    assert ordered[0] > 3 * ordered[-1]
