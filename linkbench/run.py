"""otfslink benchmark driver.

    python3 linkbench/run.py --workload desk_dense --seed 2024 --seconds 30 --trace 0

Workloads (see ``common.WORKLOADS``), each a closed loop in fresh
processes with the BLAS thread variables removed:

* ``desk_dense``: ``harness.run_trial`` on the desk frame (64 x 16), all
  five receivers, 20 dB, 1280 Hz: the dense n = 1024 path.
* ``table2_fast``: ``run_trial`` on the table2 frame (512 x 16),
  ``otfs_fde`` and ``ofdm_single_tap``, 20 dB, 6000 Hz: channel draws and
  8192-point FFTs, no dense matrix.
* ``desk_sweep_cli``: ``otfs-link run --preset desk --trials 1 --workers 2``
  over all ten sweep points, repeated, each CSV compared byte for byte.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` a
per-layer table from a traced run (and the tracing overhead).  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every error count is checked against the reference
recorded for seed 2024 in ``reference.json``; for another seed the
reference comes from an untimed serial run after the timed runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common

PY = sys.executable or "python3"
DEADLINE_S = 170.0
# fresh processes timed for set-up in each run; the CLI workload runs at
# least this many sweeps, each one a set-up sample
SETUP_SAMPLES = 3


class Budget:
    """Wall-clock budget shared by every child of one benchmark run."""

    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 1.0:
            raise SystemExit("benchmark ran out of its time budget")
        return left


def run_child(cmd: list[str], spec: dict, budget: Budget) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group (a
    CLI and its pool workers) and wait for it."""
    proc = subprocess.Popen(
        cmd,
        cwd=common.ROOT,
        env=common.child_env(spec),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=budget.left())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"timed out: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.startswith("{")]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it,
    that percentile, and the number of samples beyond it.  With ten samples
    or fewer this is the maximum, with none beyond."""
    ordered = sorted(samples)
    rank = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - 1 - rank


def check_frames(frames: list, reference: list, receivers) -> int:
    """Failed (frame, receiver) outcomes: raised, or count differs."""
    failed = 0
    for index, _, counts, _ in frames:
        for name in receivers:
            if counts is None or counts.get(name) != reference[index].get(name):
                failed += 1
    return failed


def csv_failures(csv: "str | None", reference: str) -> int:
    """Failed CSV records: all of them unless the file matches the
    reference byte for byte in its header and line count, else each record
    line that differs."""
    if csv == reference:
        return 0
    ref_lines, lines = reference.splitlines(), (csv or "").splitlines()
    if len(lines) != len(ref_lines) or lines[0] != ref_lines[0] or not csv.endswith("\n"):
        return len(ref_lines) - 1
    return max(1, sum(a != b for a, b in zip(lines[1:], ref_lines[1:])))


# ---------------------------------------------------------------------------
# in-process workloads


def trial_workload(name: str, spec: dict, args, budget: Budget) -> dict:
    base = [PY, "linkbench/worker.py", "trial", "--workload", name, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            spawned = time.time()
            done = run_child(base + ["--setup-only"], spec, budget)
            if done.returncode != 0:
                raise SystemExit(f"set-up run failed:\n{done.stderr}")
            setups.append(json_lines(done.stdout)[0]["t"] - spawned)
    spawned = time.time()
    done = run_child(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], spec, budget
    )
    if done.returncode != 0:
        raise SystemExit(f"workload run failed:\n{done.stderr}")
    ready, result = json_lines(done.stdout)
    setups.append(ready["t"] - spawned)

    reference = result["reference"]["frames"]
    timed = result["frames"] + result.get("traced_frames", [])
    for error in sorted({e for *_, e in timed if e}):
        sys.stderr.write(f"frame raised {error}\n")
    frame_ms = [ms for _, ms, _, _ in result["frames"]]
    out = {
        "attempted": len(timed) * len(spec["equalizers"]),
        "failed": check_frames(timed, reference, spec["equalizers"]),
        "frames_per_s": len(result["frames"]) / result["wall_s"],
        "frame_ms": frame_ms,
        "setups": setups,
        "peak_rss_mb": result["peak_rss_mb"],
        "reference": result["reference"]["source"],
        "blas_threads": result["blas_threads"],
        "workers": 1,
    }
    if args.trace:
        traced = result["traced_frames"]
        out["trace"] = result["trace"]
        out["traced_frames"] = len(traced)
        out["traced_frames_per_s"] = len(traced) / result["traced_wall_s"]
        out["traced_wall_ms"] = sum(ms for _, ms, _, _ in traced)
        out["cpu_ms"] = 0.0
    return out


# ---------------------------------------------------------------------------
# CLI workload


def cli_invocation(spec: dict, args, workdir: Path, i: int, trace: int, budget: Budget) -> dict:
    record = workdir / f"inv{i}"
    record.mkdir()
    csv_path = workdir / f"inv{i}.csv"
    cmd = [PY, "linkbench/cli_entry.py", "--record", str(record), "--trace", str(trace), "--"]
    cmd += common.cli_args(spec, args.seed, str(csv_path))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.time()
    t0 = time.perf_counter()
    done = run_child(cmd, spec, budget)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    dumps = [json.loads(Path(p).read_text()) for p in glob.glob(str(record / "*.json"))]
    frames = [f for d in dumps for f in d["frames"]]
    csv = None
    if done.returncode == 0 and csv_path.is_file():
        csv = csv_path.read_text(encoding="utf-8")
    else:
        sys.stderr.write(done.stderr)
    return {
        "wall_s": wall,
        "setup_s": min(start for start, _ in frames) - spawned if frames else None,
        "frame_ms": [ms for _, ms in frames],
        "csv": csv,
        "rss_mb": sum(d["maxrss_kb"] for d in dumps) / 1024,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "dumps": dumps,
    }


def cli_phase(spec, args, workdir, start_index, trace, seconds, minimum, budget):
    runs = []
    t0 = time.perf_counter()
    while len(runs) < minimum or time.perf_counter() - t0 < seconds:
        runs.append(cli_invocation(spec, args, workdir, start_index + len(runs), trace, budget))
    return runs


def cli_workload(name: str, spec: dict, args, workdir: Path, budget: Budget) -> dict:
    if args.trace:
        plain = cli_phase(spec, args, workdir, 0, 0, args.seconds / 2, 1, budget)
        traced = cli_phase(spec, args, workdir, len(plain), 1, args.seconds / 2, 1, budget)
    else:
        plain = cli_phase(
            spec, args, workdir, 0, 0, args.seconds, SETUP_SAMPLES, budget
        )
        traced = []

    recorded = common.load_reference(name, args.seed)
    if recorded is None:
        ref_csv = workdir / "reference.csv"
        done = run_child(
            [PY, "linkbench/worker.py", "sweep-reference", "--seed", str(args.seed),
             "--out", str(ref_csv)],
            spec,
            budget,
        )
        if done.returncode != 0:
            raise SystemExit(f"reference sweep failed:\n{done.stderr}")
        reference = ref_csv.read_text(encoding="utf-8")
        source = "computed by an untimed serial run after the timed runs"
    else:
        reference = recorded["csv"]
        source = f"recorded in {common.REFERENCE_PATH.name}"

    # one record per (receiver, sweep point); each point runs `trials` frames
    records = len(reference.splitlines()) - 1
    frames_per_run = spec["trials"] * records // len(spec["equalizers"])
    failed = sum(csv_failures(run["csv"], reference) for run in plain + traced)

    blas = next(
        (d["blas_threads"] for run in plain for d in run["dumps"] if d["frames"]), {}
    )
    out = {
        "attempted": records * len(plain + traced),
        "failed": failed,
        "frames_per_s": frames_per_run * len(plain) / sum(r["wall_s"] for r in plain),
        "frame_ms": [ms for r in plain for ms in r["frame_ms"]],
        "setups": [r["setup_s"] for r in plain if r["setup_s"] is not None],
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
        "reference": source,
        "blas_threads": blas,
        "workers": spec["workers"],
    }
    if args.trace:
        from tracer import summarize

        trace = summarize([d["trace"] for r in traced for d in r["dumps"]])
        n = len(trace["_roots"])
        out["trace"] = trace
        out["traced_frames"] = n
        out["traced_frames_per_s"] = frames_per_run * len(traced) / sum(
            r["wall_s"] for r in traced
        )
        out["traced_wall_ms"] = sum(root["wall_ms"] for root in trace["_roots"])
        out["cpu_ms"] = 1e3 * sum(r["cpu_s"] for r in plain) / (frames_per_run * len(plain))
    return out


# ---------------------------------------------------------------------------
# reporting


def end_to_end_metrics(res: dict) -> tuple[dict, dict]:
    value, pct, beyond = tail(res["frame_ms"])
    metrics = {
        "frames_per_s": (res["frames_per_s"], "1/s"),
        "frame_ms_p50": (statistics.median(res["frame_ms"]), "ms"),
        "frame_ms_tail": (value, "ms"),
        "setup_s": (statistics.median(res["setups"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "frame_ms_tail": f"p{pct:.1f}, {beyond} samples beyond, {len(res['frame_ms'])} frames",
        "setup_s": f"median of {len(res['setups'])} fresh processes",
        "failed_share": res["failed"] / res["attempted"],
    }
    return metrics, notes


def per_layer_metrics(res: dict) -> dict:
    from tracer import MODULES, REPORTED

    trace, frames = res["trace"], res["traced_frames"]
    metrics = {}
    for module in MODULES:
        for func in REPORTED[module]:
            entry = trace.get(f"{module}.{func}", {"ms": 0.0, "calls": 0, "bytes": 0})
            metrics[f"{module}.{func}.ms"] = (entry["ms"] / frames, "ms")
            metrics[f"{module}.{func}.calls"] = (entry["calls"] / frames, "count")
            metrics[f"{module}.{func}.mbytes"] = (entry["bytes"] / 1e6 / frames, "MB-computed")
        self_ms = sum(
            v["ms"] for k, v in trace.items() if k.startswith(module + ".")
        )
        metrics[f"{module}.self_ms"] = (self_ms / frames, "ms")
    metrics["harness.run_sweep.cpu_ms"] = (res["cpu_ms"], "ms")
    roots_self = sum(root["self_ms"] for root in trace["_roots"])
    metrics["trace.self_share"] = (roots_self / res["traced_wall_ms"], "ratio")
    metrics["trace.frames_per_s"] = (res["traced_frames_per_s"], "1/s")
    metrics["trace.overhead_frames_per_s"] = (
        res["frames_per_s"] - res["traced_frames_per_s"], "1/s"
    )
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, default=common.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for name, spec in common.WORKLOADS.items():
        common.check_memory(name, spec)
    if not (common.ROOT / "src" / "otfslink" / "__init__.py").is_file():
        raise SystemExit(f"no otfslink source under {common.ROOT / 'src'}")

    spec = common.WORKLOADS[args.workload]
    budget = Budget(DEADLINE_S)
    scratch = common.ROOT / ".linkbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if spec["kind"] == "trial":
            res = trial_workload(args.workload, spec, args, budget)
        else:
            res = cli_workload(args.workload, spec, args, workdir, budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    e2e, notes = end_to_end_metrics(res)
    metrics = per_layer_metrics(res) if args.trace else e2e
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reference": res["reference"],
        "workers": res["workers"],
        "blas_threads": res["blas_threads"],
        **notes,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "provenance": common.provenance(),
    }
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:14.6g} {unit}")
    print(f"{'failed_share':40s} {notes['failed_share']:14.6g} ratio")
    print("details " + json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
