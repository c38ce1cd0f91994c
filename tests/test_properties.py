"""Metamorphic properties of the whole inference pipeline, at tiny dims.

Each test runs the trained model twice, on inputs related in a known way,
and checks the relation between the outputs: a permuted input, other
companions in a batch, a repeated corpus, a higher threshold, a reloaded
checkpoint.  The model is trained until its decisions are mixed, so that
every relation has decisions of both kinds to keep.  Exact unless a test
says otherwise; hypothesis draws the inputs from a fixed seed.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htcinfomax import cli, trainer
from htcinfomax.dataio import (GeneratorConfig, generate_synthetic, load_corpus,
                               load_training_corpus, make_batches)
from htcinfomax.predictor import confusion_counts
from htcinfomax.taxonomy import load_taxonomy
from htcinfomax.trainer import TrainConfig, evaluate, iter_predictions, load_model, run_training

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=25, database=None)
BATCH_SIZE = 4


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A corpus, a model trained on it, its checkpoint, and ragged inputs."""
    root = tmp_path_factory.mktemp("properties")
    data = root / "data"
    generate_synthetic(GeneratorConfig(depth=2, branching=2, docs_per_label=10, doc_len=8,
                                       vocab_per_label=5), 3, data)
    tax = load_taxonomy(data / "taxonomy.txt")
    vocab, train = load_training_corpus(data / "train.jsonl", tax)
    val = load_corpus(data / "val.jsonl", vocab, tax)
    config = TrainConfig.from_dict({
        "epochs": 12, "batch_size": BATCH_SIZE, "learning_rate": 0.01, "max_len": 16, "seed": 1,
        "checkpoint_path": str(root / "model.ckpt"),
        "dims": {"embed_dim": 12, "feature_dim": 12, "label_dim": 12,
                 "mi_hidden": 8, "prior_hidden": [10, 6]}})
    model = run_training(train, val, tax, vocab, config).model
    # the eight documents of the test split four times over, each time cut
    # to another of the lengths 1..8, so batches are padded to many widths
    records = [json.loads(line) for line in
               (data / "test.jsonl").read_text(encoding="utf-8").splitlines()]
    ragged = [{"token": rec["token"][:1 + (i + i // 8) % 8], "label": rec["label"]}
              for i, rec in enumerate(records * 4)]
    path = root / "ragged.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in ragged), encoding="utf-8")
    docs = load_corpus(path, vocab, tax)
    assert sorted({len(doc.tokens) for doc in docs}) == list(range(1, 9))
    decisions = np.concatenate([p.decisions for _, p in iter_predictions(
        make_batches(docs, BATCH_SIZE, config.max_len, tax), model)])
    assert 0 < decisions.mean() < 1, "the decisions must be mixed for the properties to bite"
    return {"root": root, "model": model, "checkpoint": root / "model.ckpt", "records": ragged,
            "path": path, "docs": docs}


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def predict_lines(run, path, threshold=None) -> list[str]:
    argv = ["predict", "--checkpoint", str(run["checkpoint"]), "--data", str(path),
            "--out", str(run["root"] / "out")]
    if threshold is not None:
        argv.append(f"--threshold={threshold!r}")
    return cli_stdout(argv).splitlines()


def probabilities(model, docs, batch_size) -> np.ndarray:
    batches = make_batches(docs, batch_size, model.config.max_len, model.tax)
    return np.concatenate([p.probs for _, p in iter_predictions(batches, model)])


@DERANDOMIZED
@given(st.data())
def test_predict_over_a_permuted_input_gives_the_same_records_permuted(run, data):
    order = data.draw(st.permutations(range(len(run["records"]))))
    path = run["root"] / "permuted.jsonl"
    path.write_text("".join(json.dumps(run["records"][i]) + "\n" for i in order), encoding="utf-8")
    original = predict_lines(run, run["path"])
    assert predict_lines(run, path) == [original[i] for i in order]


@DERANDOMIZED
@given(st.lists(st.integers(0, 31), min_size=1, max_size=9), st.integers(1, 9))
def test_a_documents_probabilities_do_not_depend_on_its_batch(run, picks, batch_size):
    # the picked documents, repeats allowed, in batches of any size and so
    # padded to any width: each row equals that document's row in a batch
    # of two copies of it.  Alone in its batch a document agrees only to
    # rounding error: numpy multiplies a one-row matrix by a matrix-vector
    # product, which rounds otherwise than a matrix product of two or more rows
    model, docs = run["model"], [run["docs"][i] for i in picks]
    batches = make_batches(docs, batch_size, model.config.max_len, model.tax)
    pairs = (probabilities(model, [doc, doc], 2)[0] for doc in docs)
    for batch, preds in iter_predictions(batches, model):
        for row, pair in zip(preds.probs, pairs):
            if batch.size > 1:
                assert np.array_equal(row, pair)
            else:
                np.testing.assert_allclose(row, pair, rtol=1e-13, atol=0)


@DERANDOMIZED
@given(st.integers(2, 4), st.integers(1, 9))
def test_evaluate_over_a_repeated_corpus_gives_the_same_scores(run, k, batch_size):
    # every count scales by k, so the F1s are equal; L_c is summed per batch
    model, docs = run["model"], run["docs"]
    once = evaluate(make_batches(docs, batch_size, model.config.max_len, model.tax), model)
    repeated = evaluate(make_batches(docs * k, batch_size, model.config.max_len, model.tax), model)
    assert repeated["micro_f1"] == once["micro_f1"]
    assert repeated["macro_f1"] == once["macro_f1"]
    assert repeated["L_c"] == pytest.approx(once["L_c"], rel=1e-12)


@DERANDOMIZED
@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
def test_a_higher_threshold_never_adds_a_label_and_eval_decides_as_predict(run, low, high):
    low, high = min(low, high), max(low, high)
    names = run["model"].tax.target_names()
    kept = {}
    for threshold in (low, high):
        kept[threshold] = [json.loads(line)["labels"] for line in
                           predict_lines(run, run["path"], threshold)]
    for fewer, more in zip(kept[high], kept[low]):
        assert set(fewer) <= set(more)
    # eval scores the decisions that predict writes at the same threshold
    scored = []

    def recorded(decisions, targets):
        scored.append(decisions)
        return confusion_counts(decisions, targets)

    with mock.patch.object(trainer, "confusion_counts", recorded):
        cli_stdout(["eval", "--checkpoint", str(run["checkpoint"]), "--data", str(run["path"]),
                    "--out", str(run["root"] / "out"), f"--threshold={high!r}"])
    decided = [[n for n, d in zip(names, row) if d == 1.0] for row in np.concatenate(scored)]
    assert decided == kept[high]


@DERANDOMIZED
@given(st.lists(st.integers(0, 31), min_size=1, max_size=9), st.integers(1, 9))
def test_a_loaded_checkpoint_predicts_as_the_live_model(run, picks, batch_size):
    docs = [run["docs"][i] for i in picks]
    loaded = load_model(run["checkpoint"])
    assert np.array_equal(probabilities(loaded, docs, batch_size),
                          probabilities(run["model"], docs, batch_size))
