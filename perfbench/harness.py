"""Benchmark harness: set-up, the timed closed loop, the traced run and
the checks that run outside the timed phase.

Every call goes through ``diffbeam.cli.main`` in this process, one at a
time (a closed loop with one client), so interpreter start-up stays out of
the per-call numbers.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from diffbeam import cli

import gate
import spans
import workloads
from run import BLAS_THREAD_VARS
from workloads import Call, Inputs

DEFAULT_SEED = 1
SETUP_REPS = 3
REFERENCE_FILE = Path(__file__).with_name("reference.json")

END_TO_END = (
    ("calls_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclass
class Outcome:
    rc: int
    stderr: str
    seconds: float


def invoke(call: Call) -> Outcome:
    """One in-process CLI call; only ``cli.main`` itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.main(call.argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, not a dead benchmark
        rc = -1
        err.write(traceback.format_exc())
    return Outcome(rc, err.getvalue(), time.perf_counter() - start)


@dataclass
class Tally:
    """Calls attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, checker: gate.Gate, call: Call, outcome: Outcome) -> bool:
        self.attempted += 1
        try:
            checker.check(call, outcome.rc, outcome.stderr)
        except gate.GateError as err:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{call.kind} slot {call.slot}: {err}")
            return False
        return True


def environment(nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "montecarlo_workers": workloads.MC_WORKERS,
        "parallel_check_workers": nproc,
        "cpu": cpu,
    }


def setup(workload: str, seed: int, work: Path, tiny: bool, nproc: int, tally: Tally,
          checker: gate.Gate) -> tuple[Inputs, list[float], bool]:
    """Generate inputs, pre-design and warm up, ``SETUP_REPS`` times.

    Returns the last repetition's inputs, each repetition's wall time, and
    whether every repetition generated byte-identical inputs.
    """
    times, digests = [], []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = workloads.generate(workload, seed, work / f"setup{rep}", tiny)
        outcomes = [(call, invoke(call)) for call in inputs.predesigns + [inputs.warmup]]
        times.append(time.perf_counter() - start)
        digests.append(workloads.input_digest(inputs))
    for call, outcome in outcomes:
        tally.record(checker, call, outcome)
    return inputs, times, len(set(digests)) == 1


def run_cycles(calls: list[Call], seconds: float, checker: gate.Gate,
               tally: Tally) -> tuple[list[Outcome], int]:
    """Whole passes over ``calls``, as many as start within ``seconds``.
    The gate runs between calls, outside their timing."""
    outcomes: list[Outcome] = []
    done = 0
    deadline = time.perf_counter() + seconds
    while done == 0 or time.perf_counter() < deadline:
        for call in calls:
            outcome = invoke(call)
            tally.record(checker, call, outcome)
            outcomes.append(outcome)
        done += 1
    return outcomes, done


def end_to_end(calls: list[Call], outcomes: list[Outcome], setup_s: float) -> dict:
    """Latency quantiles over every call; throughput as the median over
    passes, so a burst of contention on the machine moves one pass only."""
    ms = np.array([1e3 * o.seconds for o in outcomes])
    pass_s = ms.reshape(-1, len(calls)).sum(axis=1) / 1e3
    trials = sum(call.expect["trials"] if call.kind == "montecarlo" else 1 for call in calls)
    values = {
        "calls_per_s": float(np.median(len(calls) / pass_s)),
        "call_p50_ms": float(np.percentile(ms, 50)),
        "call_p90_ms": float(np.percentile(ms, 90)),
        "trials_per_s": float(np.median(trials / pass_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced(inputs: Inputs, seconds: float, nproc: int, checker: gate.Gate,
           tally: Tally) -> tuple[dict, dict]:
    """Untraced passes, then the same passes traced, then (Monte Carlo) a
    traced ``nproc``-worker study of slot 0 for scaling efficiency."""
    calls = inputs.calls
    plain, cycles = run_cycles(calls, seconds / 2.0, checker, tally)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_outcomes = []
        for index in range(cycles * len(calls)):
            tracer.call = index
            call = calls[index % len(calls)]
            outcome = invoke(call)
            tally.record(checker, call, outcome)
            traced_outcomes.append(outcome)
        efficiency, parallel = 0.0, None
        if calls[0].kind == "montecarlo":
            tracer.call = "parallel"
            outcome, identical = parallel_study(inputs, nproc, checker, tally)
            efficiency = traced_outcomes[0].seconds / outcome.seconds / nproc
            parallel = {
                "workers": nproc,
                "study_s": outcome.seconds,
                "one_worker_study_s": traced_outcomes[0].seconds,
                "byte_identical": identical,
            }
    finally:
        tracer.uninstall()
    recorded = [s for s in tracer.spans if s.call != "parallel"]
    traced_s = sum(o.seconds for o in traced_outcomes)
    plain_s = sum(o.seconds for o in plain)
    metrics = spans.layer_metrics(
        recorded,
        calls=len(traced_outcomes),
        workers=workloads.MC_WORKERS,
        overhead_share=traced_s / plain_s - 1.0,
        unmapped=tracer.unmapped,
        scaling_efficiency=efficiency,
    )
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    report = {
        "traced_calls": len(traced_outcomes),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "unmapped": tracer.unmapped,
        "computed": list(spans.COMPUTED),
        "per_call": "counts and ms are per CLI call except *_per_system, trial, "
        "reduce, queue and share metrics",
        "parallel_study": parallel,
        "p50_ms": {
            name: 1e3 * float(np.median(durations))
            for name in ("_run_one", "design_filter", "gain_curves")
            if (durations := [s.end - s.start for s in recorded if s.name == name])
        },
        "spans_per_call": spans.span_table(recorded, len(traced_outcomes)),
    }
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, report


def parallel_study(inputs: Inputs, nproc: int, checker: gate.Gate,
                   tally: Tally) -> tuple[Outcome, bool]:
    """Slot 0's study at ``nproc`` workers. Its CSVs must equal, byte for
    byte, those of the timed one-worker study, which the gate has already
    seen repeat identically across passes."""
    single = inputs.calls[0]
    parallel = workloads.with_threads(single, nproc, inputs.root / "out" / "parallel")
    outcome = invoke(parallel)
    identical = tally.record(checker, parallel, outcome) and gate.output_digest(
        parallel, 0, ""
    ) == gate.output_digest(single, 0, "")
    if outcome.rc == 0 and not identical:
        tally.failed += 1
        tally.messages.append(f"the {nproc}-worker study differs from the one-worker study")
    return outcome, identical


def reference_pass(workload: str, work: Path, nproc: int, tiny: bool) -> dict:
    """Run the default seed's reference calls, gated, and summarize them:
    every slot of design and evaluate, slot 0 of a Monte Carlo workload."""
    checker = gate.Gate()
    tally = Tally()
    inputs = workloads.generate(workload, DEFAULT_SEED, work, tiny)
    summaries = {}
    for call in inputs.predesigns:
        tally.record(checker, call, invoke(call))
    for call in inputs.calls[:1] if inputs.calls[0].kind == "montecarlo" else inputs.calls:
        outcome = invoke(call)
        if tally.record(checker, call, outcome):
            summaries[str(call.slot)] = gate.summarize(call, outcome.rc, outcome.stderr)
    return {"summaries": summaries, "failed": tally.failed, "messages": tally.messages}


def compare_reference(workload: str, summaries: dict) -> list[str]:
    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload)
    if stored is None:
        return [f"no stored reference for {workload}"]
    problems = []
    if set(summaries) != set(stored):
        problems.append(f"reference slots {sorted(summaries)} != stored {sorted(stored)}")
    for slot in sorted(set(summaries) & set(stored)):
        try:
            gate.compare_summary(summaries[slot], stored[slot])
        except gate.GateError as err:
            problems.append(f"slot {slot}: {err}")
    return problems


def run(args, import_s: float) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    nproc = len(os.sched_getaffinity(0))
    bench_root = Path(".bench_work")
    work = bench_root / f"{args.workload}-{os.getpid()}"
    try:
        lines, result = _run(args, import_s, nproc, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            bench_root.rmdir()
        except OSError:
            pass
    for key, value in lines.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    print(json.dumps(result))
    return 0


def _run(args, import_s: float, nproc: int, work: Path) -> tuple[dict, dict]:
    checker = gate.Gate()
    tally = Tally()
    inputs, setup_times, inputs_pure = setup(
        args.workload, args.seed, work, args.tiny, nproc, tally, checker
    )
    setup_s = import_s + statistics.median(setup_times)
    setup_failed = tally.failed

    if args.trace:
        metrics, report = traced(inputs, args.seconds, nproc, checker, tally)
    else:
        outcomes, cycles = run_cycles(inputs.calls, args.seconds, checker, tally)
        metrics = end_to_end(inputs.calls, outcomes, setup_s)
        report = {
            "samples": len(outcomes),
            "cycles": cycles,
            "failed_calls": tally.failed - setup_failed,
            "error_rate": (tally.failed - setup_failed) / len(outcomes),
            "import_s": import_s,
            "setup_reps_s": setup_times,
        }

    if inputs.calls[0].kind == "montecarlo" and not args.trace:
        _, identical = parallel_study(inputs, nproc, checker, tally)
        report["parallel_study_byte_identical"] = identical

    reference = reference_pass(args.workload, work / "reference", nproc, args.tiny)
    problems = [] if args.tiny else compare_reference(args.workload, reference["summaries"])
    checks = {
        "inputs_pure_function_of_seed": inputs_pure,
        "reference_calls_failed": reference["failed"],
        "reference_mismatches": problems if not args.tiny else "skipped at smoke size",
        "failure_messages": tally.messages + reference["messages"],
    }
    correct = (
        tally.failed == 0
        and inputs_pure
        and reference["failed"] == 0
        and not problems
    )
    lines = {
        "workload": {
            "name": args.workload,
            "why": workloads.WORKLOADS[args.workload],
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": int(args.trace),
            "calls_per_pass": len(inputs.calls),
            "smoke_size": bool(args.tiny),
        },
        "environment": environment(nproc),
        "checks": checks,
        "trace" if args.trace else "report": report,
    }
    result = {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return lines, result
