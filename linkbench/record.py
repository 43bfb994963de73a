"""Record the reference, or repeat the benchmark and summarize its spread.

    python3 linkbench/record.py reference
        Rewrites reference.json: the error counts of every in-process
        workload's frames and the CLI workload's CSV, for seed 2024, from
        untimed serial runs.
    python3 linkbench/record.py runs --workloads desk_dense,table2_fast \
        --seeds 1-10 --seconds 30 --out FILE
        Runs run.py once per (workload, seed), untraced, then once traced
        per workload, and writes every result with, per end-to-end metric,
        the median, quartiles and spread (quartile distance over median).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import common


def _run(cmd: list[str], spec: "dict | None" = None) -> str:
    done = subprocess.run(
        cmd, cwd=common.ROOT, env=common.child_env(spec or {}), capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return done.stdout


def write_reference() -> None:
    seed = common.REFERENCE_SEED
    workloads = {}
    for name, spec in common.WORKLOADS.items():
        if spec["kind"] == "trial":
            out = _run([sys.executable, "linkbench/worker.py", "reference",
                        "--workload", name, "--seed", str(seed)], spec)
            workloads[name] = json.loads(out)
        else:
            scratch = common.ROOT / ".linkbench_tmp"
            scratch.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                csv_path = Path(tmp) / "reference.csv"
                _run([sys.executable, "linkbench/worker.py", "sweep-reference",
                      "--seed", str(seed), "--out", str(csv_path)], spec)
                data = csv_path.read_bytes()
            scratch.rmdir()
            workloads[name] = {
                "csv_sha256": hashlib.sha256(data).hexdigest(),
                "csv": data.decode("utf-8"),
            }
    document = {"seed": seed, "workloads": workloads}
    common.REFERENCE_PATH.write_text(json.dumps(document, indent=1) + "\n")


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = _run([sys.executable, "linkbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    lines = out.splitlines()
    details = json.loads(lines[-2].removeprefix("details "))
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "frame_ms_tail": details["frame_ms_tail"],
        "reference": details["reference"],
        "blas_threads": details["blas_threads"],
        "provenance": details["provenance"],
    }


def repeat(args) -> None:
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(bench(workload, seed, args.seconds, 0))
            print(workload, seed, {k: round(v, 4) for k, v in runs[-1]["metrics"].items()},
                  "correct" if runs[-1]["correct"] else "INCORRECT", flush=True)
        entry = {
            "end_to_end": {
                k: spread([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]
            },
            "runs": runs,
        }
        for k, v in entry["end_to_end"].items():
            print(f"  {k:16s} median {v['median']:.4g} spread {v['spread']:.3f}", flush=True)
        if args.traced:
            entry["traced"] = bench(workload, seeds[0], args.seconds, 1)
        summary["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reference")
    runs = sub.add_parser("runs")
    runs.add_argument("--workloads", default=",".join(common.WORKLOADS))
    runs.add_argument("--seeds", default="1-10")
    runs.add_argument("--seconds", type=int, default=30)
    runs.add_argument("--traced", action="store_true", help="add one traced run per workload")
    runs.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.command == "reference":
        write_reference()
    else:
        repeat(args)


if __name__ == "__main__":
    main()
