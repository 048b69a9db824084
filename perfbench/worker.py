"""One repetition of a benchmark workload, in a fresh process.

run.py starts this script with the checkout's ``src`` on PYTHONPATH and one
JSON argument naming the workload, its generated config, whether to trace or
to calibrate (see calibrate.py) and where to put temporary files. The script
prints one JSON line: timings, peak resident set, output checks and digests
of the trace files.

    python3 perfbench/worker.py '{"workload": "steer", "seed": 5, ...}'
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from calibrate import REF_KERNEL_S, Calibrator, kernel_seconds
from spans import Tracer, installed
from workloads import (
    EMA_BAND,
    LAYERS,
    ORACLE_MONTE_CARLO_GROUPS,
    POOLED_BAND,
    POOLED_TAIL_STEPS,
    TRACE_FILES,
    WORKLOADS,
    config_seed,
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pooled_tail_rates(result) -> dict[str, float]:
    tail = result.metrics[-POOLED_TAIL_STEPS:]
    rates = {}
    for label in result.final_states:
        count = sum(m.bucket_group_counts.get(label, 0) for m in tail)
        passed = sum(
            m.bucket_pass_rates[label] * m.bucket_group_counts[label]
            for m in tail
            if label in m.bucket_pass_rates
        )
        rates[label] = passed / count if count else float("nan")
    return rates


def closed_loop_checks(workload, result, trace_dir: Path) -> tuple[dict, dict, dict]:
    """(checks name -> passed, trace file digests, reported values)."""
    checks = {
        "audit_losses_finite": all(math.isfinite(m.audit_loss) for m in result.metrics),
        "rewards_binary": all(
            r in (0, 1) for record in result.group_records for r in record["rewards"]
        ),
    }
    digests = {name: _sha256(trace_dir / name) for name in TRACE_FILES}
    info: dict = {}
    if workload.name == "steer":
        rates = _pooled_tail_rates(result)
        lo, hi = POOLED_BAND
        checks["pooled_rates_in_band"] = all(lo <= r <= hi for r in rates.values())
        emas = {label: s.ema for label, s in result.final_states.items()}
        info = {
            "pooled_tail_rates": rates,
            "final_emas": emas,
            "ema_band_held": all(EMA_BAND[0] <= e <= EMA_BAND[1] for e in emas.values()),
        }
    return checks, digests, info


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    workload = WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None
    # passband's third-party dependencies load before the clock starts. Their
    # import takes most of a process start (0.26-0.54 s on a 2-CPU Xeon VM,
    # against about 0.05 s for passband itself), is the same for every
    # version of passband, and is the noisiest part of it.
    import numpy
    import scipy.special

    kernel_before = kernel_seconds()
    t0 = time.perf_counter()
    import passband.harness
    import passband.verification

    out: dict = {
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    }
    with installed(tracer, LAYERS) if tracer else nullcontext():
        if workload.kind == "closed_loop":
            config = passband.config.parse_config(spec["config"])
            passband.env.make_task_population(config.population, config.seed)
        t1 = time.perf_counter()
        kernel_around = (kernel_before + kernel_seconds()) / 2
        out["setup_s"] = t1 - t0
        out["setup_ref_s"] = (t1 - t0) * REF_KERNEL_S / kernel_around
        if spec["setup_only"]:
            print(json.dumps(out))
            return 0
        calibrator = Calibrator() if spec["calibrate"] else None
        with (
            tempfile.TemporaryDirectory(dir=spec["tmp"]) as tmp,
            calibrator or nullcontext(),
        ):
            t1 = time.perf_counter()
            if workload.kind == "closed_loop":
                result = passband.harness.run_experiment(config)
                t2 = time.perf_counter()
                passband.harness.emit_traces(result, tmp)
                t3 = time.perf_counter()
                groups = len(result.group_records)
            else:
                suites = passband.verification.run_default_checks(config_seed(spec["seed"]))
                t2 = t3 = time.perf_counter()
                groups = ORACLE_MONTE_CARLO_GROUPS
            out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if workload.kind == "closed_loop":
                checks, digests, info = closed_loop_checks(workload, result, Path(tmp))
            else:
                checks = {s.name: s.passed for s in suites}
                digests = {}
                info = {s.name: s.detail for s in suites if not s.passed}
    if calibrator:
        out.update(
            run_s=calibrator.work_seconds(t1, t2),
            wall_s=calibrator.work_seconds(t1, t3),
            run_ref_s=calibrator.reference_seconds(t1, t2),
            wall_ref_s=calibrator.reference_seconds(t1, t3),
            kernel_ms=calibrator.median_kernel_s() * 1e3,
            kernels=len(calibrator.kernel_s),
        )
    else:
        out.update(run_s=t2 - t1, wall_s=t3 - t1)
    out.update(
        groups=groups,
        checks=checks,
        digests=digests,
        info=info,
    )
    if tracer is not None:
        tracer.log().save(spec["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
