"""Command-line interface: subcommands, exit codes, manifests, schemas."""

import json
import struct

import numpy as np
import pytest

from htcinfomax import autodiff as ad
from htcinfomax import cli
from htcinfomax.dataio import load_corpus, make_batches
from htcinfomax.trainer import load_model, read_checkpoint

TINY_TRAIN_CONFIG = {
    "epochs": 2,
    "batch_size": 4,
    "learning_rate": 0.01,
    "max_len": 16,
    "dims": {"embed_dim": 12, "feature_dim": 12, "label_dim": 12,
             "mi_hidden": 8, "prior_hidden": [10, 6]},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated corpus plus one trained checkpoint, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert cli.main(["gendata", "--out", str(data), "--depth", "2", "--branching", "2",
                     "--docs-per-label", "10", "--doc-len", "8",
                     "--vocab-per-label", "5", "--seed", "3"]) == 0
    config = root / "config.json"
    config.write_text(json.dumps(TINY_TRAIN_CONFIG), encoding="utf-8")
    assert cli.main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(run), "--seed", "1"]) == 0
    return {"root": root, "data": data, "run": run, "config": config,
            "checkpoint": run / "model.ckpt"}


# -- gendata ----------------------------------------------------------------------


def test_gendata_stdout_json_and_stderr_table(tmp_path, capsys):
    rc = cli.main(["gendata", "--out", str(tmp_path / "d"), "--depth", "2",
                   "--branching", "2", "--docs-per-label", "2", "--doc-len", "4",
                   "--vocab-per-label", "3", "--seed", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["label_count"] == 6
    assert payload["depth"] == 2
    assert "L (labels)" in captured.err
    assert "Avg-L" in captured.err


def test_gendata_same_flags_identical_hashes(tmp_path, capsys):
    flags = ["--depth", "2", "--branching", "2", "--docs-per-label", "3",
             "--doc-len", "4", "--vocab-per-label", "3", "--seed", "9"]
    cli.main(["gendata", "--out", str(tmp_path / "a"), *flags])
    first = json.loads(capsys.readouterr().out)["files"]
    cli.main(["gendata", "--out", str(tmp_path / "b"), *flags])
    second = json.loads(capsys.readouterr().out)["files"]
    assert first == second


def test_gendata_writes_run_manifest(tmp_path, capsys):
    out = tmp_path / "d"
    cli.main(["gendata", "--out", str(out), "--depth", "2", "--branching", "2",
              "--docs-per-label", "2", "--doc-len", "4", "--vocab-per-label", "3"])
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "gendata"
    assert manifest["config"]["depth"] == 2
    assert manifest["config"]["seed"] == 7
    assert "outputs" in manifest and "artifact_version" in manifest


def test_gendata_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"depth": 2, "branching": 3, "docs_per_label": 2,
                               "doc_len": 4, "vocab_per_label": 3}), encoding="utf-8")
    cli.main(["gendata", "--out", str(tmp_path / "d"), "--config", str(cfg),
              "--branching", "2"])
    payload = json.loads(capsys.readouterr().out)
    # depth from file, branching overridden by flag: 2-ary depth-2 tree
    assert payload["label_count"] == 6


def test_gendata_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"dpeth": 3}), encoding="utf-8")
    assert cli.main(["gendata", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2
    assert "dpeth" in capsys.readouterr().err


def test_gendata_invalid_flag_value_is_usage_error(tmp_path, capsys):
    rc = cli.main(["gendata", "--out", str(tmp_path / "d"), "--branching", "1"])
    assert rc == 2


# -- train ------------------------------------------------------------------------


def test_train_writes_log_with_all_scalars(workspace):
    lines = (workspace["run"] / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert {"L", "L_c", "L_MI", "L_pr", "F"} <= set(record)


def test_train_stdout_reports_run_summary(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--seed", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seeds"] == [2]
    assert payload["runs"][0]["micro_f1"] is not None
    assert (tmp_path / "r" / "model.ckpt").exists()


def test_train_base_ablation_reports_l_equal_l_c(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--seed", "1",
                   "--disable-mi", "--disable-label-prior", "--batch-size", "2"])
    assert rc == 0
    for line in (tmp_path / "r" / "train_log.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert record["L"] == record["L_c"]
        assert record["L_MI"] == 0.0 and record["L_pr"] == 0.0


def test_train_seed_sweep_reports_means(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--seeds", "1,2", "--epochs", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seeds"] == [1, 2]
    assert len(payload["runs"]) == 2
    per_seed = [r["micro_f1"] for r in payload["runs"]]
    assert payload["mean_micro_f1"] == pytest.approx(sum(per_seed) / 2)
    assert (tmp_path / "r" / "model_seed1.ckpt").exists()
    assert (tmp_path / "r" / "model_seed2.ckpt").exists()


def test_train_flag_overrides_config_file(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--seed", "1", "--epochs", "1"])
    assert rc == 0
    lines = (tmp_path / "r" / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 1  # flag epochs=1 beats config epochs=2


def test_train_missing_data_dir_is_usage_error(tmp_path, capsys):
    rc = cli.main(["train", "--data", str(tmp_path / "nope")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_train_checkpoint_with_seeds_rejected(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]), "--seeds", "1,2",
                   "--checkpoint", str(tmp_path / "m.ckpt")])
    assert rc == 2


@pytest.mark.parametrize("seeds,pair", [
    ("0,4294967296", "0 and 4294967296"),
    ("-1,4294967295", "-1 and 4294967295"),
    ("3,5,3", "3 and 3"),
])
def test_train_seeds_selecting_the_same_streams_rejected(workspace, tmp_path, capsys, seeds, pair):
    rc = cli.main(["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), f"--seeds={seeds}", "--epochs", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"--seeds {pair} select the same random streams" in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_train_invalid_batch_size_combination(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--batch-size", "1"])
    assert rc == 2
    assert "batch_size" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [
    5,
    {"text_kernels": 3},
    {"embed_dim": "wide"},
    {"embed_dim": 12, "hidden_width": 4},
    {"embed_dim": 12, "prior_hidden": [10]},
])
def test_train_malformed_dims_is_usage_error(workspace, tmp_path, capsys, dims):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_TRAIN_CONFIG, "dims": dims}), encoding="utf-8")
    rc = cli.main(["train", "--data", str(workspace["data"]), "--config", str(config),
                   "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value", [
    ("gendata", "depth", "3"),
    ("train", "learning_rate", "x"),
    ("train", "epochs", "2"),
    ("train", "batch_size", None),
    ("train", "threshold", "a"),
    ("train", "clip_norm", "z"),
    ("train", "checkpoint_path", "elsewhere.ckpt"),
    ("train", "log_path", "elsewhere.jsonl"),
])
def test_config_value_of_wrong_kind_is_usage_error(workspace, tmp_path, capsys, command, key, value):
    config = tmp_path / "config.json"
    base = TINY_TRAIN_CONFIG if command == "train" else {}
    config.write_text(json.dumps({**base, key: value}), encoding="utf-8")
    args = ["--data", str(workspace["data"])] if command == "train" else []
    rc = cli.main([command, *args, "--config", str(config), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "usage error" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "r" / "model.ckpt").exists()


@pytest.mark.parametrize("flags,seed", [([], 3), (["--seed", "5"], 5)])
def test_train_seed_precedence_is_flag_then_config_file(workspace, tmp_path, capsys, flags, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_TRAIN_CONFIG, "epochs": 1, "seed": 3}), encoding="utf-8")
    rc = cli.main(["train", "--data", str(workspace["data"]), "--config", str(config),
                   "--out", str(tmp_path / "r"), *flags])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["seeds"] == [seed]
    manifest = json.loads((tmp_path / "r" / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["seeds"] == [seed]
    assert manifest["config"]["runs"][str(seed)]["seed"] == seed
    assert read_checkpoint(tmp_path / "r" / "model.ckpt")["header"]["config"]["seed"] == seed


def test_train_manifest_written(workspace):
    manifest = json.loads((workspace["run"] / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    assert "train" in manifest["inputs"]
    assert "sha256" in manifest["inputs"]["train"]
    assert manifest["config"]["runs"]["1"]["epochs"] == 2


# -- eval -------------------------------------------------------------------------


def test_eval_prints_single_json_object(workspace, tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert set(payload) == {"micro_f1", "macro_f1", "L_c"}
    assert "micro F1" in captured.err


def test_eval_is_idempotent(workspace, tmp_path, capsys):
    args = ["eval", "--checkpoint", str(workspace["checkpoint"]),
            "--data", str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path)]
    cli.main(args)
    first = capsys.readouterr().out
    cli.main(args)
    second = capsys.readouterr().out
    assert first == second


def test_eval_missing_checkpoint_is_usage_error(workspace, tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--data", str(workspace["data"] / "test.jsonl")])
    assert rc == 2


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_is_usage_error(workspace, tmp_path, capsys, command, threshold):
    rc = cli.main([command, "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path), f"--threshold={threshold}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--threshold must be a finite number" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_eval_corrupt_checkpoint_is_runtime_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage!" * 8)
    rc = cli.main(["eval", "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1


def test_eval_corrupt_checkpoint_header_is_runtime_error(workspace, tmp_path, capsys):
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:16] + b"{" * length + blob[16 + length:])
    rc = cli.main(["eval", "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "corrupt header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("first_extent", [-1, 2.5, 2**62])
def test_bad_parameter_shape_in_checkpoint_header_is_runtime_error(
        workspace, tmp_path, capsys, command, first_extent):
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    header["params"][0]["shape"][0] = first_extent
    edited = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(edited)) + edited + blob[16 + length:])
    rc = cli.main([command, "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "corrupt header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("case", ["progress-not-object", "adam-other-names", "trailing-bytes"])
def test_hostile_checkpoint_is_runtime_error(workspace, tmp_path, capsys, command, case):
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    body = blob[16 + length:]
    if case == "progress-not-object":
        header["progress"] = [1, 2]
    elif case == "adam-other-names":
        header["adam"].pop(header["params"][0]["name"])
    else:
        body += b"\x00" * 8
    edited = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(edited)) + edited + body)
    rc = cli.main([command, "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {bad}")


# -- predict ----------------------------------------------------------------------


def test_predict_emits_one_json_line_per_document(workspace, tmp_path, capsys):
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    n_docs = len((workspace["data"] / "test.jsonl").read_text().splitlines())
    assert len(lines) == n_docs
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"labels", "probs"}
        assert all(0.0 < p < 1.0 for p in record["probs"].values())
        assert all(name in record["probs"] for name in record["labels"])


def test_predict_empty_input_exits_zero_with_no_output(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(empty), "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_predict_malformed_json_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"token": ["x"]}\nnot json\n', encoding="utf-8")
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("record", ['[1, 2]', '{"token": "n0#w0 n0#w1"}'])
def test_predict_malformed_record_is_data_error(workspace, tmp_path, capsys, record):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"token": ["x"]}\n' + record + "\n", encoding="utf-8")
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().out == ""


def test_predict_emits_the_decisions_evaluate_scores(workspace, tmp_path, capsys):
    # ragged documents, some longer than max_len (16); the last record's label
    # is not in the taxonomy, which predict ignores
    records = [json.loads(line) for line in
               (workspace["data"] / "test.jsonl").read_text(encoding="utf-8").splitlines()]
    labeled = []
    for i, rec in enumerate(records[:11]):
        tokens = (rec["token"] * 4)[:2 + 3 * i]
        labeled.append({"token": tokens, "label": rec["label"]})
    labeled_path = tmp_path / "labeled.jsonl"
    labeled_path.write_text("".join(json.dumps(r) + "\n" for r in labeled), encoding="utf-8")
    unknown = labeled[:-1] + [{"token": labeled[-1]["token"], "label": ["no-such-label"]}]
    predict_path = tmp_path / "predict.jsonl"
    predict_path.write_text("".join(json.dumps(r) + "\n" for r in unknown), encoding="utf-8")

    model = load_model(workspace["checkpoint"])
    assert max(len(r["token"]) for r in labeled) > model.config.max_len
    batches = make_batches(load_corpus(labeled_path, model.vocab, model.tax),
                           model.config.batch_size, model.config.max_len, model.tax)
    with ad.no_grad():
        preds = [model.predict(b) for b in batches]
    decisions = np.concatenate([p.decisions for p in preds])
    probs = np.concatenate([p.probs for p in preds])

    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(predict_path), "--out", str(tmp_path)])
    assert rc == 0
    emitted = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(emitted) == len(labeled)
    names = model.tax.target_names()
    for row, record in enumerate(emitted):
        assert record["labels"] == [n for j, n in enumerate(names) if decisions[row, j] == 1.0]
        assert [record["probs"][n] for n in names] == probs[row].tolist()


def test_predict_accepts_unlabeled_documents(workspace, tmp_path, capsys):
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text('{"token": ["n0#w0", "n0#w1", "unseen"]}\n', encoding="utf-8")
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(unlabeled), "--out", str(tmp_path)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record["probs"]) == {"n0", "n1", "n0.0", "n0.1", "n1.0", "n1.1"}


# -- plumbing ---------------------------------------------------------------------


def test_invalid_log_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HTCIM_LOG", "shouty")
    assert cli.main(["gendata", "--out", "ignored"]) == 2
    assert "HTCIM_LOG" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2
