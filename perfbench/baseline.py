"""Run the benchmark over several seeds and summarise it as JSON.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload: each end-to-end metric's values over seeds 1-10,
their median and quartile spread (IQR / median, as
`statistics.quantiles(n=4)` gives the quartiles), the same for the
wall-clock values before normalising and for the reference GEMM's time,
each run's validation scores, then the per-layer metrics of one traced
run (seed 1), and the environment record of the first run.  Runs happen one after
another in child processes, exactly as `BENCHMARK.json`'s command is
run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {"run_seconds": spec["run_seconds"], "seeds": [SEEDS[0], SEEDS[-1]],
               "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        runs, validation, unnormalised, reference = [], [], [], []
        for seed in SEEDS:
            details, result = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            validation.append(details["validation"])
            unnormalised.append(details["unnormalised"])
            reference.append(details["reference"]["median_ms"])
            summary.setdefault("environment", details["environment"])
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        details, traced = run_once(name, TRACE_SEED, spec["run_seconds"], 1)
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: dict(unit=m["unit"], **summarise(
                [r["metrics"][m["name"]]["value"] for r in runs])) for m in spec["end_to_end"]},
            "unnormalised": {m["name"]: summarise([u[m["name"]] for u in unnormalised])
                             for m in spec["end_to_end"]},
            "reference_ms": summarise(reference),
            "validation": validation,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "step_accounting": details["step_accounting"],
            "trace_samples": details["samples"],
        }
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
