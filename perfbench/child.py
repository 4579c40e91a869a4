"""One workload in its own fresh process.

Started by run.py with the BLAS and OpenMP thread pins already in the
environment.  Modes:

  setup  import spinqec, generate inputs, warm up, report setup_s
  run    setup, then the untraced timed job
  trace  setup, the first half of the job's passes untraced, the same
         number traced, then allocation probes; reports per-layer metrics

The timed job is a fixed number of passes: --seconds divided by the
workload's nominal pass time (PASS_S), rounded.  The pass count, and with
it the sample count behind every percentile, depends only on --seconds,
never on how fast the host or the code under test runs.

setup_s runs from --t0, a CLOCK_MONOTONIC stamp the parent takes just
before starting this interpreter, until the first timed operation starts.
The last line of standard output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

import spinqec

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10
# The CLI byte check compares every later pass with the first.
MIN_PASSES = 2
LEDGER_EXAMPLES = 3


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Ledger:
    """Failed operations by (kind, checks, defect), with example inputs;
    every failure is also written out in full."""

    def __init__(self):
        self.groups: dict[tuple, dict] = {}
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, op: workloads.Op, failed: list[str], error: BaseException | None) -> None:
        self.attempted += 1
        if not failed:
            return
        self.failed += 1
        key = (op.kind, ",".join(failed), op.defect or "")
        group = self.groups.setdefault(key, {"count": 0, "examples": []})
        group["count"] += 1
        detail = f"{op.label}" + (f" -> {type(error).__name__}: {error}" if error else "")
        if len(group["examples"]) < LEDGER_EXAMPLES:
            group["examples"].append(detail)
        self.lines.append(f"{op.kind}\t{','.join(failed)}\t{detail}\t{op.defect or 'UNEXPECTED'}")

    @property
    def unexpected(self) -> int:
        return sum(g["count"] for (_, _, defect), g in self.groups.items() if not defect)

    def summary(self) -> list[dict]:
        return [{"kind": kind, "checks": chk, "defect": defect or None, **group}
                for (kind, chk, defect), group in sorted(self.groups.items())]


def run_pass(ops, order=None, tracer=None, first_id=0):
    """Time each operation, in the given execution order; returns
    (wall_s, cpu_s, op_times, outcomes) with times and outcomes in list order."""
    gc.collect()
    op_times = [0.0] * len(ops)
    outcomes = [None] * len(ops)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for i in range(len(ops)) if order is None else order:
        op = ops[i]
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.op(first_id + i, op.kind):
                    result = op.call()
            error = None
        except Exception as exc:  # a raising operation is a counted failure
            result, error = None, exc
        op_times[i] = time.perf_counter() - start
        outcomes[i] = (result, error)
    return time.perf_counter() - wall0, time.process_time() - cpu0, op_times, outcomes


def check_pass(ops, outcomes, ledger: Ledger, reference: dict, tally: dict) -> None:
    """Apply every operation's checks after the pass, outside the timing."""
    results = {op.key: res for op, (res, err) in zip(ops, outcomes) if op.key is not None and err is None}
    ctx = workloads.PassResults(results, reference, tally)
    for op, (result, error) in zip(ops, outcomes):
        if error is not None:
            failed = [f"raised:{type(error).__name__}"]
        else:
            try:
                failed = op.check(result, ctx)
            except Exception as exc:  # a check that cannot run is a failure too
                failed = [f"check_error:{type(exc).__name__}"]
        ledger.record(op, failed, error)


def checker_self_test() -> list[str]:
    """Labels of known-bad operations that are not counted as failed when
    run through the same pass, checks and ledger as the workloads."""
    Op = workloads.Op
    bad_ops = [
        Op("selftest", "nan result", lambda: np.array([1.0, math.nan]), lambda r, ctx: checks.finite(r)),
        Op("selftest", "fidelity 1 + 1e-9", lambda: 1.0 + 1e-9, lambda r, ctx: checks.fidelity(r)),
        Op("selftest", "tail mass 1.5", lambda: 1.5, lambda r, ctx: checks.tail_mass(r)),
        Op("selftest", "non-unitary matrix", lambda: np.array([[1.0, 0.0], [0.0, 1.1]]),
           lambda r, ctx: checks.rotation(r)),
        Op("selftest", "oracle off by 1e-6", lambda: (1.0 + 1e-6, 0.0),
           lambda r, ctx: checks.oracle((1.0, 0.0), r)),
        Op("selftest", "cli exit 2", lambda: 2, lambda rc, ctx: checks.cli_output(rc, b"", None)),
        Op("selftest", "cli nan", lambda: b"theta,magnitude\n0,nan\n",
           lambda data, ctx: checks.cli_output(0, data, None)),
        Op("selftest", "raises OverflowError", lambda: math.exp(1000.0), lambda r, ctx: []),
    ]
    missed = []
    for op in bad_ops:
        ledger = Ledger()
        _, _, _, outcomes = run_pass([op])
        check_pass([op], outcomes, ledger, {}, {})
        if ledger.failed != 1:
            missed.append(op.label)
    return missed


class Job:
    """The timed passes of one workload and everything measured on them."""

    def __init__(self, wl):
        self.wl = wl
        self.ledger = Ledger()
        self.reference: dict = {}
        self.tally: dict = {}
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.op_times: list[float] = []
        self.ops_per_pass = 0
        self.ops_kind: dict[int, str] = {}
        self.ops_category: dict[int, str] = {}
        self.ops_label: dict[int, str] = {}
        self.passes = 0

    def one_pass(self, tracer=None) -> None:
        ops = self.wl.ops(self.passes)
        self.ops_per_pass = len(ops)
        first = self.passes * len(ops)
        if tracer is not None:
            for i, op in enumerate(ops):
                self.ops_kind[first + i] = op.kind
                self.ops_category[first + i] = op.category
                self.ops_label[first + i] = op.label
        order = None
        if self.wl.SHUFFLE:
            order = np.random.default_rng([self.wl.seed, self.passes]).permutation(len(ops)).tolist()
        wall, cpu, times, outcomes = run_pass(ops, order, tracer, first)
        self.passes += 1
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.op_times.extend(times)
        check_pass(ops, outcomes, self.ledger, self.reference, self.tally)

    def run(self, passes: int, tracer=None) -> None:
        for _ in range(passes):
            self.one_pass(tracer)

    def end_to_end(self) -> dict:
        times = sorted(self.op_times)
        n = len(times)
        m = self.ops_per_pass
        # Each operation of the pass is timed once per pass; its mean over
        # the passes is its time, and op_p50 is the median of those times.
        # Means, like the job totals, move in proportion to the share of
        # passes a slow spell of the host covers; medians jump between the
        # fast and slow values once that share nears a half.
        per_op = [statistics.fmean(self.op_times[i::m]) for i in range(m)]
        # The highest percentile with TAIL_BEYOND samples beyond it.
        tail_rank = n - TAIL_BEYOND
        return {
            "wall_s": math.fsum(self.walls),
            "cpu_s": math.fsum(self.cpus),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_tail_ms": times[tail_rank - 1] * 1e3,
            "tail_percentile": 100.0 * tail_rank / n,
            "tail_beyond": n - tail_rank,
            "samples": n,
            "passes": self.passes,
            "ops_per_pass": self.ops_per_pass,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def ledger_report(self) -> dict:
        return {
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "unexpected": self.ledger.unexpected,
            "failures": self.ledger.summary(),
        }


def traced_job(wl, passes: int, span_file: Path) -> tuple[Job, dict]:
    """The first half of the job's passes untraced, then as many traced.

    Returns the traced job and the per-layer metrics, per traced pass;
    trace.overhead_s is the traced mean pass minus the untraced one.
    """
    untraced = Job(wl)
    untraced.run(max(1, passes // 2))
    traced = Job(wl)  # its own ledger and tally; pass indices continue
    traced.passes = untraced.passes
    traced.reference = untraced.reference
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        traced.run(untraced.passes, tracer)
    finally:
        restore()
    layers = spans.layer_metrics(tracer, traced.ops_kind, traced.ops_category,
                                 untraced.passes, traced.tally)
    for name in ("rotations.wigner_d_matrix", "coherent.diagonal_operator"):
        layers[f"{name}.alloc_peak_mb"] = (tracer.alloc_peak_mib(name), "MB")
    layers["trace.overhead_s"] = (statistics.fmean(traced.walls) - statistics.fmean(untraced.walls), "s")
    layers["failed_share"] = (traced.ledger.failed / traced.ledger.attempted, "ratio")
    tracer.dump(span_file, {i: (traced.ops_kind[i], traced.ops_label[i]) for i in traced.ops_kind})
    return traced, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(spinqec.__file__).resolve().parent.parent != src:
        print(f"spinqec imported from {spinqec.__file__}, not from {src}", file=sys.stderr)
        return 2
    problems = checker_self_test()
    if problems:
        print("checker self-test: not counted as failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    # Non-finite results are counted by the checks; numpy's warnings add nothing.
    warnings.simplefilter("ignore", RuntimeWarning)

    out_dir = Path(args.out_dir)
    tmp = Path(tempfile.mkdtemp(prefix=f"cli-{args.workload}-", dir=out_dir))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        wl.warm_up()
        report = {"setup_s": time.monotonic() - args.t0}
        if args.mode == "setup":
            print(json.dumps(report))
            return 0

        passes = max(MIN_PASSES, round(args.seconds / wl.PASS_S))
        if args.mode == "run":
            job = Job(wl)
            job.run(passes)
            report.update(job.end_to_end())
        else:
            span_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            job, report["layers"] = traced_job(wl, passes, span_file)
            report["span_file"] = str(span_file.relative_to(ROOT))
        report.update(job.ledger_report())
        ledger_file = out_dir / f"failures-{args.workload}-seed{args.seed}-{args.mode}.tsv"
        ledger_file.write_text("".join(line + "\n" for line in job.ledger.lines), encoding="utf-8")
        report["ledger_file"] = str(ledger_file.relative_to(ROOT))
        samples_file = out_dir / f"samples-{args.workload}-seed{args.seed}-{args.mode}.json"
        samples_file.write_text(json.dumps({"pass_wall_s": job.walls, "pass_cpu_s": job.cpus,
                                            "ops_per_pass": job.ops_per_pass,
                                            "op_s": job.op_times}), encoding="utf-8")
        report["machine"] = machine_facts()
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
