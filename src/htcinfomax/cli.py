"""Command-line interface: gendata, train, eval, predict.

Machine-readable JSON goes to stdout; human-readable tables and progress
go to stderr.  Every command writes a run manifest (resolved config, seed,
input hashes, output paths) before doing any work, so a run can be
reproduced from its manifest alone.  Config precedence is defaults, then
a JSON config file, then command-line flags.  Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .dataio import (
    ConfigError,
    DataError,
    Document,
    GeneratorConfig,
    build_vocab_from_file,
    file_sha256,
    generate_synthetic,
    load_corpus,
    make_batches,
    read_raw_corpus,
)
from .infomax import NumericError
from .taxonomy import TaxonomyError, load_taxonomy, stats
from .trainer import (
    CheckpointError,
    TrainConfig,
    evaluate,
    load_model,
    run_training,
)

log = logging.getLogger("htcinfomax")

MANIFEST_NAME = "run_manifest.json"


class UsageError(Exception):
    """Bad flags, missing files, or inconsistent flag combinations."""


def _setup_logging():
    levels = {"quiet": logging.ERROR, "warning": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("HTCIM_LOG", "info").lower()
    if name not in levels:
        raise UsageError(f"HTCIM_LOG must be one of {sorted(levels)}, got {name!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[name],
                        format="%(levelname)s %(name)s: %(message)s")
    return name


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _load_config_file(path, allowed: set[str], what: str) -> dict:
    p = _require_file(path, "config file")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise UsageError(f"config file {p} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {p} must hold a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise UsageError(f"config file {p} has unknown {what} keys: {sorted(unknown)}")
    return data


def _resolve(defaults: dict, file_cfg: dict, flag_cfg: dict) -> dict:
    """defaults < config file < flags; None flag values mean 'not given'."""
    out = dict(defaults)
    out.update(file_cfg)
    out.update({k: v for k, v in flag_cfg.items() if v is not None})
    return out


def _write_manifest(out_dir, command: str, config: dict, inputs: dict, outputs: dict) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": file_sha256(p)}
                   for name, p in inputs.items()},
        "outputs": {name: str(p) for name, p in outputs.items()},
    }
    path = out / MANIFEST_NAME
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.debug("wrote manifest %s", path)
    return path


def _table(rows: list[tuple[str, object]], title: str):
    width = max(len(k) for k, _ in rows)
    print(title, file=sys.stderr)
    for key, value in rows:
        print(f"  {key.ljust(width)} : {value}", file=sys.stderr)


# -- gendata ---------------------------------------------------------------------


def cmd_gendata(args) -> int:
    allowed = {f.name for f in fields(GeneratorConfig)}
    file_cfg = _load_config_file(args.config, allowed, "generator") if args.config else {}
    flag_cfg = {
        "depth": args.depth, "branching": args.branching,
        "vocab_per_label": args.vocab_per_label, "docs_per_label": args.docs_per_label,
        "doc_len": args.doc_len, "imbalance_exponent": args.imbalance_exponent,
        "noise_rate": args.noise_rate,
        "val_docs_per_label": args.val_docs_per_label,
        "test_docs_per_label": args.test_docs_per_label,
    }
    defaults = {f.name: getattr(GeneratorConfig(), f.name) for f in fields(GeneratorConfig)}
    resolved = _resolve(defaults, file_cfg, flag_cfg)
    config = GeneratorConfig(**resolved)
    config.validate()
    seed = args.seed if args.seed is not None else 7

    out_dir = Path(args.out)
    outputs = {name: out_dir / f"{name}.jsonl" for name in ("train", "val", "test")}
    outputs["taxonomy"] = out_dir / "taxonomy.txt"
    outputs["manifest"] = out_dir / "manifest.json"
    inputs = {"config_file": args.config} if args.config else {}
    _write_manifest(out_dir, "gendata", {**resolved, "seed": seed}, inputs, outputs)

    manifest = generate_synthetic(config, seed, out_dir)
    tax = load_taxonomy(out_dir / "taxonomy.txt")
    tax_stats = stats(tax)
    _table([
        ("L (labels)", tax_stats["label_count"]),
        ("Depth", tax_stats["depth"]),
        ("Avg-L", f"{manifest['avg_labels_per_doc']:.2f}"),
        ("train docs", manifest["splits"]["train"]),
        ("val docs", manifest["splits"]["val"]),
        ("test docs", manifest["splits"]["test"]),
    ], f"synthetic corpus at {out_dir}")
    print(json.dumps({
        "out_dir": str(out_dir),
        "seed": seed,
        "label_count": tax_stats["label_count"],
        "depth": tax_stats["depth"],
        "avg_labels_per_doc": manifest["avg_labels_per_doc"],
        "splits": manifest["splits"],
        "files": manifest["files"],
    }, sort_keys=True))
    return 0


# -- train -----------------------------------------------------------------------


def _load_train_config_file(args) -> dict:
    """The --config file's settings; output paths come only from flags."""
    if not args.config:
        return {}
    file_cfg = _load_config_file(args.config, {f.name for f in fields(TrainConfig)}, "training")
    for key in ("checkpoint_path", "log_path"):
        if key in file_cfg:
            raise UsageError(f"config file {args.config} sets {key}; "
                             "outputs are placed by --out and --checkpoint")
    return file_cfg


def _build_train_config(args, file_cfg: dict, seed, checkpoint_path, log_path) -> TrainConfig:
    flag_cfg = {
        "epochs": args.epochs, "batch_size": args.batch_size,
        "learning_rate": args.lr, "threshold": args.threshold,
        "disable_mi": True if args.disable_mi else None,
        "disable_label_prior": True if args.disable_label_prior else None,
    }
    defaults = TrainConfig().to_dict()
    resolved = _resolve(defaults, file_cfg, flag_cfg)
    resolved["seed"] = seed
    resolved["checkpoint_path"] = str(checkpoint_path)
    resolved["log_path"] = str(log_path)
    try:
        config = TrainConfig.from_dict(resolved)
        config.validate()
    except (ValueError, ad.DimensionError) as err:
        raise UsageError(str(err)) from None
    return config


def _parse_seeds(args, file_seed) -> list:
    """--seeds, else --seed, else the config file's seed, else 7."""
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise UsageError(f"--seeds must be a comma-separated integer list, got {args.seeds!r}") from None
        if not seeds:
            raise UsageError("--seeds is empty")
        streams = {}       # derived_rng keys every stream on seed mod 2**32
        for seed in seeds:
            key = seed & 0xFFFFFFFF
            if key in streams:
                raise UsageError(f"--seeds {streams[key]} and {seed} select the same random "
                                 "streams: seeds equal modulo 2**32 train identical runs")
            streams[key] = seed
        return seeds
    return [args.seed if args.seed is not None else file_seed]


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise UsageError(f"--data must be a directory with train/val JSON-lines files: {data_dir}")
    train_path = _require_file(data_dir / "train.jsonl", "training corpus")
    val_path = data_dir / "val.jsonl"
    val_path = val_path if val_path.is_file() else None
    tax_path = _require_file(args.taxonomy or data_dir / "taxonomy.txt", "taxonomy")

    file_cfg = _load_train_config_file(args)
    seeds = _parse_seeds(args, file_cfg.get("seed", 7))
    if args.checkpoint and len(seeds) > 1:
        raise UsageError("--checkpoint names a single file; it cannot be combined with --seeds")

    out_dir = Path(args.out)
    plans = []
    for seed in seeds:
        suffix = f"_seed{seed}" if len(seeds) > 1 else ""
        ckpt = Path(args.checkpoint) if args.checkpoint else out_dir / f"model{suffix}.ckpt"
        logp = out_dir / f"train_log{suffix}.jsonl"
        plans.append((seed, _build_train_config(args, file_cfg, seed, ckpt, logp)))

    inputs = {"train": train_path, "taxonomy": tax_path}
    if val_path:
        inputs["val"] = val_path
    if args.config:
        inputs["config_file"] = args.config
    outputs = {}
    for seed, config in plans:
        outputs[f"checkpoint_seed{seed}"] = config.checkpoint_path
        outputs[f"log_seed{seed}"] = config.log_path
    _write_manifest(out_dir, "train",
                    {"seeds": seeds, "runs": {str(s): c.to_dict() for s, c in plans}},
                    inputs, outputs)

    tax = load_taxonomy(tax_path)
    vocab = build_vocab_from_file(train_path)
    train_docs = load_corpus(train_path, vocab, tax)
    val_docs = load_corpus(val_path, vocab, tax) if val_path else []

    runs = []
    stream = sys.stderr if log.isEnabledFor(logging.DEBUG) else None
    for seed, config in plans:
        Path(config.log_path).unlink(missing_ok=True)
        log.info("training seed %d (%d epochs, batch %d, lr %g)",
                 seed, config.epochs, config.batch_size, config.learning_rate)
        result = run_training(train_docs, val_docs, tax, vocab, config, log_stream=stream)
        final = result.records[-1] if result.records else {}
        runs.append({
            "seed": seed,
            "checkpoint": config.checkpoint_path,
            "log": config.log_path,
            "epochs": result.epochs_completed,
            "micro_f1": final.get("micro_f1"),
            "macro_f1": final.get("macro_f1"),
            "L": final.get("L"),
        })
        _table([(k, runs[-1][k]) for k in ("seed", "epochs", "micro_f1", "macro_f1", "L")],
               f"run complete (seed {seed})")

    summary = {"runs": runs, "seeds": seeds}
    measured = [r for r in runs if r["micro_f1"] is not None]
    if measured:
        summary["mean_micro_f1"] = float(np.mean([r["micro_f1"] for r in measured]))
        summary["mean_macro_f1"] = float(np.mean([r["macro_f1"] for r in measured]))
        if len(measured) > 1:
            _table([("mean micro F1", f"{summary['mean_micro_f1']:.4f}"),
                    ("mean macro F1", f"{summary['mean_macro_f1']:.4f}")],
                   f"sweep over {len(measured)} seeds")
    print(json.dumps(summary, sort_keys=True))
    return 0


# -- eval and predict ------------------------------------------------------------


def _load_for_inference(args, corpus: str):
    """Check the inputs, write the manifest, load the model, apply --threshold."""
    if args.threshold is not None and not np.isfinite(args.threshold):
        raise UsageError(f"--threshold must be a finite number, got {args.threshold}")
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    data_path = _require_file(args.data, corpus)
    _write_manifest(Path(args.out), args.command, {"threshold": args.threshold},
                    {"checkpoint": ckpt_path, "data": data_path}, {})
    model = load_model(ckpt_path)
    if args.threshold is not None:
        model.head.threshold = args.threshold
    return model, data_path


def cmd_eval(args) -> int:
    model, data_path = _load_for_inference(args, "evaluation corpus")
    docs = load_corpus(data_path, model.vocab, model.tax)
    batches = make_batches(docs, model.config.batch_size, model.config.max_len, model.tax)
    metrics = evaluate(batches, model)
    _table([("micro F1", f"{metrics['micro_f1']:.4f}"),
            ("macro F1", f"{metrics['macro_f1']:.4f}"),
            ("L_c", f"{metrics['L_c']:.6f}"),
            ("documents", len(docs))], f"evaluation of {data_path}")
    print(json.dumps(metrics, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    model, data_path = _load_for_inference(args, "input corpus")
    names = model.tax.target_names()
    # labels are optional here and ignored: every document gets an empty label set
    docs = [Document(tokens=model.vocab.encode(tokens), labels=frozenset())
            for _, tokens, _ in read_raw_corpus(data_path)]
    with ad.no_grad():
        lr = model.structure_encoder()
        for batch in make_batches(docs, model.config.batch_size, model.config.max_len, model.tax):
            preds = model.predict(batch, lr)
            for i in range(batch.size):
                record = {
                    "labels": [names[j] for j in range(model.num_labels)
                               if preds.decisions[i, j] >= 1.0],
                    "probs": {names[j]: float(preds.probs[i, j]) for j in range(model.num_labels)},
                }
                print(json.dumps(record, sort_keys=True))
    log.info("predicted %d documents", len(docs))
    return 0


# -- plumbing --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htcinfomax",
        description="Hierarchical multi-label text classification with "
                    "text-label mutual information maximization and label prior matching.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gendata", help="write a synthetic corpus and taxonomy")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--config", help="JSON file of generator settings")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--depth", type=int)
    gen.add_argument("--branching", type=int)
    gen.add_argument("--vocab-per-label", type=int, dest="vocab_per_label")
    gen.add_argument("--docs-per-label", type=int, dest="docs_per_label")
    gen.add_argument("--doc-len", type=int, dest="doc_len")
    gen.add_argument("--imbalance-exponent", type=float, dest="imbalance_exponent")
    gen.add_argument("--noise-rate", type=float, dest="noise_rate")
    gen.add_argument("--val-docs-per-label", type=int, dest="val_docs_per_label")
    gen.add_argument("--test-docs-per-label", type=int, dest="test_docs_per_label")
    gen.set_defaults(func=cmd_gendata)

    tr = sub.add_parser("train", help="train a model; flags select ablations")
    tr.add_argument("--data", required=True, help="directory with train.jsonl (and val.jsonl)")
    tr.add_argument("--taxonomy", help="taxonomy file (default: <data>/taxonomy.txt)")
    tr.add_argument("--config", help="JSON file of training settings")
    tr.add_argument("--out", default=".", help="directory for checkpoint, log, manifest")
    tr.add_argument("--checkpoint", help="explicit checkpoint path (single seed only)")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--seeds", help="comma-separated seeds for a sweep")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-size", type=int, dest="batch_size")
    tr.add_argument("--lr", type=float)
    tr.add_argument("--threshold", type=float)
    tr.add_argument("--disable-mi", action="store_true",
                    help="ablation: drop the text-label mutual information loss")
    tr.add_argument("--disable-label-prior", action="store_true",
                    help="ablation: drop the label prior matching loss")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a labeled corpus")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="JSON-lines corpus file")
    ev.add_argument("--threshold", type=float)
    ev.add_argument("--out", default=".", help="directory for the run manifest")
    ev.set_defaults(func=cmd_eval)

    pr = sub.add_parser("predict", help="emit label predictions as JSON lines")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--data", required=True, help="JSON-lines corpus (labels optional)")
    pr.add_argument("--threshold", type=float)
    pr.add_argument("--out", default=".", help="directory for the run manifest")
    pr.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (DataError, TaxonomyError, CheckpointError, NumericError,
            ad.DimensionError, ad.DomainError, ad.ContractError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
