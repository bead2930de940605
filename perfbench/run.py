#!/usr/bin/env python3
"""End-to-end registry benchmark: discover, browse and churn through the client.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload discover --seed 1 --seconds 20 --trace 0

``--trace 0`` builds the fixture several times (``setup_s`` is the median),
then measures the workload untraced and prints the end-to-end metrics.
``--trace 1`` wraps each layer's public entry points with span recorders
(see ``tracing.py``), measures an untraced phase, a span phase and a
kernel-attribution phase on one fixture, and prints the per-layer metrics.  Every answer is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record is written to
``perfbench/out/``.  See ``NOTES.md`` for the workloads and predictions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("discover", "browse", "churn")
#: fixture builds per end-to-end run; setup_s is their median
SETUP_REPEATS = 3
#: a seed kept out of tuning, for confirming later performance claims
HELD_OUT_SEED = 9173

END_TO_END_UNITS = {
    "read_p50_us": "us",
    "read_p90_us": "us",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> int | None:
    """Run every thread of the benchmark on one CPU; returns that CPU.

    The interpreter lock lets one thread run Python at a time anyway; on a
    shared machine, waking a serving worker on another CPU made the serving
    workload's latencies swing by a factor of two from run to run.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_workload(name: str, fixture, seed: int, recorder=None):
    from workloads import Browse, Churn, Discover

    return {"discover": Discover, "browse": Browse, "churn": Churn}[name](fixture, seed, recorder)


# -- end-to-end run ------------------------------------------------------------


def run_end_to_end(args) -> tuple[dict, int, int, dict]:
    from counters import GcPauses, percentile, windowed
    from fixture import build_fixture
    from workloads import CHURN_REQUESTS_PER_SECOND, CHURN_WARMUP_REQUESTS, WARMUP_CALLS

    setup_times = []
    fixture = None
    for _ in range(SETUP_REPEATS):
        fixture = None
        gc.collect()
        started = time.perf_counter()
        fixture = build_fixture(args.seed)
        setup_times.append(time.perf_counter() - started)
    gc.collect()
    seconds = args.seconds
    workload = make_workload(args.workload, fixture, args.seed)
    extra: dict = {}
    with GcPauses() as pauses:
        if args.workload == "churn":
            with workload:
                workload.run_closed_loop(CHURN_WARMUP_REQUESTS)
                phase = workload.run_closed_loop(int(CHURN_REQUESTS_PER_SECOND * seconds))
            attempted = phase.attempted
            failed = phase.failed + (not workload.final_check())
            extra["write_p50_us"] = percentile(phase.write_latencies, 0.50) * 1e6
            extra["write_p99_us"] = percentile(phase.write_latencies, 0.99) * 1e6
            extra["writes_measured"] = len(phase.write_latencies)
        else:
            phase = workload.run(seconds, warmup=WARMUP_CALLS)
            attempted, failed = phase.attempted, phase.failed
    extra.update(pauses.summary())
    extra["reads_measured"] = len(phase.read_latencies)
    extra["setup_runs_s"] = setup_times
    extra["read_p99_us"] = percentile(phase.read_latencies, 0.99) * 1e6
    # medians over ten consecutive windows of the phase
    metrics = {
        "read_p50_us": windowed(phase.read_latencies, lambda w: percentile(w, 0.50)) * 1e6,
        "read_p90_us": windowed(phase.read_latencies, lambda w: percentile(w, 0.90)) * 1e6,
        "throughput_rps": windowed(phase.latencies, lambda w: len(w) / sum(w)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, attempted, failed, extra


# -- traced run ---------------------------------------------------------------


def run_traced(args) -> tuple[dict, int, int, dict]:
    import tracing
    from counters import GcPauses, delta, percentile, stats_snapshot
    from fixture import build_fixture
    from layers import layer_metrics
    from workloads import CHURN_RATE_RPS, WARMUP_CALLS, ladder

    recorder = tracing.Recorder()
    tracing.install(recorder)
    fixture = build_fixture(args.seed)
    gc.collect()
    half = args.seconds / 2
    workload = make_workload(args.workload, fixture, args.seed, recorder)
    churn = args.workload == "churn"
    supervisor = workload.supervisor if churn else None

    def measure(seconds: float, warmup: int = 0):
        if not churn:
            return workload.run(seconds, warmup=warmup)
        if warmup:
            workload.run_open_loop(workload.schedule(warmup), CHURN_RATE_RPS)
        return workload.run_open_loop(
            workload.schedule(int(CHURN_RATE_RPS * seconds)), CHURN_RATE_RPS
        )

    context = {"workload": args.workload}
    if churn:
        supervisor.start()
    try:
        with GcPauses() as pauses:
            untraced = measure(half, WARMUP_CALLS)
        context["gc"] = pauses.summary()
        # spans and the kernel's attribution split each cost time per
        # request, so they are measured in separate phases
        before = stats_snapshot(fixture, supervisor)
        recorder.enabled = True
        traced = measure(half / 2)
        recorder.enabled = False
        after = stats_snapshot(fixture, supervisor)
        fixture.registry.enable_attribution()
        attribution_before = stats_snapshot(fixture, supervisor)
        attributed = measure(half / 2)
        attribution_after = stats_snapshot(fixture, supervisor)
        fixture.registry.enable_attribution(False)
        phases = [untraced, traced, attributed]
        if churn:
            context["queue_depth_high_water"] = supervisor.serving_stats()[
                "queue_depth_high_water"
            ]
            context["max_rate_rps"], ladder_phases = ladder(workload)
            phases += ladder_phases
    finally:
        if churn:
            supervisor.close()
    counters = delta(before, after)
    counters["attribution"] = delta(attribution_before, attribution_after)["attribution"]
    context.update(
        untraced=untraced,
        traced=traced,
        counters=counters,
        summary=tracing.summarize(recorder.spans, "kernel" if churn else "client"),
    )
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    if churn:
        failed += not workload.final_check()
    context["failed_ratio"] = failed / attempted
    metrics = layer_metrics(context, percentile)
    extra = {"spans": len(recorder.spans)}
    return metrics, attempted, failed, extra


# -- output -------------------------------------------------------------------


def write_record(args, metrics: dict, attempted: int, failed: int, extra: dict) -> Path:
    from fixture import BINDINGS_PER_SERVICE, HOSTS, ORGANIZATIONS, SERVICES, SWEEP_PERIOD_S
    import workloads

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "parameters": {
            "services": SERVICES,
            "bindings_per_service": BINDINGS_PER_SERVICE,
            "hosts": HOSTS,
            "organizations": ORGANIZATIONS,
            "sweep_period_s": SWEEP_PERIOD_S,
            "sim_seconds_per_request": workloads.SIM_SECONDS_PER_REQUEST,
            "zipf_s": workloads.ZIPF_S,
            "warmup_calls": workloads.WARMUP_CALLS,
            "churn_rate_rps": workloads.CHURN_RATE_RPS,
            "churn_write_every": workloads.WRITE_EVERY,
            "churn_write_pattern": workloads.WRITE_PATTERN,
            "churn_requests_per_second": workloads.CHURN_REQUESTS_PER_SECOND,
            "setup_repeats": SETUP_REPEATS,
        },
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "extra": extra,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no registry source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    pinned_cpu = pin_to_one_cpu()
    runner = run_traced if args.trace else run_end_to_end
    metrics, attempted, failed, extra = runner(args)
    extra["pinned_cpu"] = pinned_cpu
    record = write_record(args, metrics, attempted, failed, extra)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} record={record.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.4f} {unit}")
    print(f"{'failed_ratio':44s} {failed / attempted:16.6f} ratio ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
