"""The passband benchmark: workloads timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steer --seed 5 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30

Every repetition runs in a fresh process (worker.py) against the checkout's
``src``, so repetitions do not share heap growth, and each one reports its
own set-up time and peak resident set. With ``--trace 0`` a run alternates
set-up-only processes with full repetitions until ``--seconds`` is used up
and prints the median end-to-end metrics; the full repetitions run under the
calibrator (calibrate.py), which rescales their time to reference seconds so
that the machine's drifting speed does not show in it. With ``--trace 1`` it alternates
untraced and traced repetitions; the traced ones wrap passband's public
functions (see workloads.py) and give the per-layer metrics, and the ratio of
the two kinds of repetition gives the tracing overhead. Every repetition's
outputs are checked; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. ``--all`` runs every
workload both ways, prints all metrics, and exits 1 if any check failed.

Results, with the machine and library versions they came from, are written
to ``.perfbench/results`` in the checkout; span files to ``.perfbench/spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SpanLog, layer_totals
from workloads import LAYERS, WORKLOADS, config_seed, per_layer_metric_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 150
# Two repetitions at least, so a median never rests on one process.
MIN_REPS = 2
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "ref_s"),
    ("groups_per_ref_s", "1/ref_s"),
    ("peak_rss_mib", "MiB"),
)


class WorkerError(RuntimeError):
    pass


def run_worker(spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "passband").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(versions: dict, workload: str, seed: int) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        **versions,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": workload,
        "seed": seed,
        "config_seed": config_seed(seed),
    }


def rep_failures(workload, rep: dict, reference: dict) -> int:
    """Failed operations of one repetition: the run, or each failed suite."""
    if workload.kind == "oracles":
        return sum(not ok for ok in rep["checks"].values())
    return int(not all(rep["checks"].values()) or rep["digests"] != reference["digests"])


def per_layer_metrics(log: SpanLog, traced_total_s: float) -> dict[str, float]:
    totals = layer_totals(log)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        t = totals.get(layer.name)
        calls = t.calls if t else 0
        busy = (t.self_s if layer.report_self else t.busy_s) if t else 0.0
        p = layer.metric_prefix
        metrics[f"{p}.calls"] = calls
        metrics[f"{p}.busy_s"] = busy
        metrics[f"{p}.us_per_call"] = busy / calls * 1e6 if calls else 0.0
        metrics[f"{p}.share"] = busy / traced_total_s
        counter = log.counts.get(layer.name, {})
        for metric, _, _, value in layer.extra_metrics:
            metrics[metric] = value(calls, counter)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about `seconds` and return its result record."""
    workload = WORKLOADS[name]
    tmp = WORK_DIR / "tmp"
    spans_dir = WORK_DIR / "spans"
    for d in (tmp, spans_dir):
        d.mkdir(parents=True, exist_ok=True)
    base = {
        "workload": name,
        "seed": seed,
        "config": workload.config_text(seed),
        "tmp": str(tmp),
        "trace": False,
        # Traced repetitions run without the calibrator, so that its kernels
        # do not land in the spans.
        "calibrate": not trace,
        "setup_only": False,
    }
    start = time.perf_counter()
    # Warm-up: the first process after a fresh checkout compiles bytecode.
    run_worker({**base, "setup_only": True})
    setups: list[float] = []
    reps: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        cycle_start = time.perf_counter()
        if trace:
            # Alternate which kind goes first, so drift hits both alike.
            kinds = (False, True) if len(traced) % 2 == 0 else (True, False)
            for kind in kinds:
                spec = {**base, "trace": kind}
                if kind:
                    spec["spans"] = str(spans_dir / f"{name}-rep{len(traced)}.spans")
                rep = run_worker(spec)
                rep["traced"] = kind
                if kind:
                    rep["spans"] = spec["spans"]
                    traced.append(rep)
                reps.append(rep)
        else:
            setups.append(run_worker({**base, "setup_only": True})["setup_ref_s"])
            rep = run_worker(base)
            setups.append(rep["setup_ref_s"])
            reps.append(rep)
        now = time.perf_counter()
        longest = max(longest, now - cycle_start)
        enough = len(traced) >= 1 if trace else len(reps) >= MIN_REPS
        # Start another cycle only if it would end less than half a cycle
        # past `seconds`.
        if enough and now - start + longest / 2 > seconds:
            break

    failed = sum(rep_failures(workload, rep, reps[0]) for rep in reps)
    attempted = len(reps) * (len(reps[0]["checks"]) if workload.kind == "oracles" else 1)
    untraced = [r for r in reps if not r.get("traced")]
    metrics: dict[str, float] = {}
    warnings: list[str] = []
    if trace:
        layer_runs = [
            per_layer_metrics(SpanLog.load(r["spans"]), r["setup_s"] + r["wall_s"])
            for r in traced
        ]
        metrics["trace_overhead"] = statistics.median(
            r["wall_s"] for r in traced
        ) / statistics.median(r["wall_s"] for r in untraced)
        for key in layer_runs[0]:
            metrics[key] = statistics.median(run[key] for run in layer_runs)
        for layer in LAYERS:
            if layer.name in workload.exercised and metrics[f"{layer.metric_prefix}.calls"] == 0:
                warnings.append(
                    f"layer {layer.name} recorded no calls on {name}: not reached"
                )
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_ref_s"] = statistics.median(r["wall_ref_s"] for r in reps)
        metrics["groups_per_ref_s"] = statistics.median(
            r["groups"] / r["run_ref_s"] for r in reps
        )
        metrics["peak_rss_mib"] = statistics.median(r["rss_mib"] for r in reps)

    record = {
        "workload": name,
        "trace": int(trace),
        "env": environment(reps[0]["versions"], name, seed),
        "config": base["config"],
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "metrics": metrics,
        "warnings": warnings,
        "setup_samples": setups,
        "reps": reps,
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    shutil.rmtree(tmp, ignore_errors=True)
    return record


def _units() -> dict[str, str]:
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in per_layer_metric_specs())
    return units


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def report_lines(record: dict) -> list[str]:
    """Human-readable lines: environment, metrics, checks, warnings."""
    name = record["workload"]
    workload = WORKLOADS[name]
    lines = [f"# env {json.dumps(record['env'])}"]
    metrics = record["metrics"]
    if record["trace"]:
        lines.append(f"{name:<11} trace_overhead {_fmt(metrics['trace_overhead'])} ratio")
        for layer in LAYERS:
            p = layer.metric_prefix
            if metrics[f"{p}.calls"] == 0:
                state = "not reached" if layer.name in workload.exercised else "-"
                lines.append(f"{name:<11} {p:<40} {state}")
                continue
            cells = [
                f"{k} {_fmt(metrics[f'{p}.{k}'])}"
                for k in ("calls", "busy_s", "us_per_call", "share")
            ]
            cells += [
                f"{m.rsplit('.', 1)[1]} {_fmt(metrics[m])}" for m, _, _, _ in layer.extra_metrics
            ]
            lines.append(f"{name:<11} {p:<40} " + "  ".join(cells))
    else:
        for metric, unit in END_TO_END:
            lines.append(f"{name:<11} {metric:<18} {_fmt(metrics[metric]):>12} {unit}")
        # Unscaled figures, for reading only.
        for label, key, unit in (
            ("setup_raw_s", "setup_s", "s"),
            ("wall_raw_s", "wall_s", "s"),
            ("kernel_ms", "kernel_ms", "ms"),
        ):
            value = statistics.median(r[key] for r in record["reps"])
            lines.append(f"{name:<11} {label + ' (info)':<18} {_fmt(value):>12} {unit}")
    lines.append(
        f"{name:<11} fail_share {record['failed']}/{record['attempted']}"
        f" = {_fmt(record['fail_share'])}"
    )
    for rep in record["reps"]:
        if rep.get("info"):
            lines.append(f"{name:<11} info {json.dumps(rep['info'])}")
            break
    lines += [f"WARNING {w}" for w in record["warnings"]]
    return lines


def result_line(record: dict) -> str:
    units = _units()
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload both ways")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not (ROOT / "src" / "passband" / "__init__.py").is_file():
        print(f"no passband sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.all
        else [(args.workload, bool(args.trace))]
    )
    records = []
    for workload, trace in runs:
        try:
            record = run_workload(workload, args.seed, args.seconds, trace)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        records.append(record)
        print("\n".join(report_lines(record)), flush=True)
    if not args.all:
        print(result_line(records[0]))
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
