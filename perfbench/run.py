"""Benchmark for spinqec: one workload per call, measured in fresh processes.

    python3 perfbench/run.py --workload kl_scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
its src/ directory, so there is nothing to build.  Workloads (see
workloads.py): kl_scan, syndrome_rounds, dense_tables.

--trace 0 prints the end-to-end metrics:
  setup_s      median over several fresh interpreters of the time from
               interpreter start through import, input generation and
               warm-up to the first timed operation
  wall_s       wall time of the timed job: a fixed number of passes over
               the workload's operation list, --seconds over the
               workload's nominal pass time (so the count never depends
               on the speed of the host or of the code)
  cpu_s        process CPU time of the same job; above wall_s means
               extra threads
  op_p50_ms    median operation time: each operation of the pass takes
               its mean over the passes, and this is their median
  op_tail_ms   the highest percentile of operation time with ten samples
               beyond it; with a fixed job the sample count, and so the
               percentile, is the same on every run; both are printed
  peak_rss_mb  peak resident memory of the workload process
and, on its own summary line, failed_share: operations that raised or
failed a named contract check (checks.py), over operations attempted.

--trace 1 runs the same passes with spans around calls into each module
and prints the per-layer metrics (spans.py), plus the import-time
breakdown from `python -X importtime`.

The last line of standard output is the result object.  `correct` is
false when any operation fails outside the ledger of known defects that
ROADMAP item 1 records; those known failures still count in `failed`.
Full failure lists, and spans of a traced run, are written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("kl_scan", "syndrome_rounds", "dense_tables")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4  # extra fresh interpreters per run, besides the measured one
IMPORT_PROBES = 3
BUDGET_S = 170.0
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out-dir", str(OUT_DIR)]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_importtime(stderr: str) -> dict[str, float]:
    """Milliseconds from ``python -X importtime -c 'import spinqec'``.

    scipy_ms and numpy_ms sum the cumulative time of the package's modules
    that no numpy or scipy module imported, so a numpy module that scipy
    pulls in counts toward scipy; spinqec_self_ms sums the self time of
    spinqec modules.
    """
    stack: list[dict] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|", 2)
        name = raw.strip()
        node = {"name": name, "indent": len(raw) - len(raw.lstrip()),
                "self": int(self_us), "cum": int(cum_us), "children": []}
        while stack and stack[-1]["indent"] > node["indent"]:
            node["children"].insert(0, stack.pop())
        stack.append(node)

    totals = {"total": 0, "scipy": 0, "numpy": 0, "spinqec_self": 0}

    def family(name: str) -> str:
        return name.split(".", 1)[0]

    def walk(node, inside_numeric: bool):
        fam = family(node["name"])
        numeric = fam in ("scipy", "numpy")
        if numeric and not inside_numeric:
            totals[fam] += node["cum"]
        if fam == "spinqec":
            totals["spinqec_self"] += node["self"]
        if node["name"] == "spinqec":
            totals["total"] += node["cum"]
        for child in node["children"]:
            walk(child, inside_numeric or numeric)

    for root in stack:
        walk(root, False)
    return {key: value / 1000.0 for key, value in totals.items()}


def import_breakdown(deadline: float) -> dict:
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spinqec"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr[-3000:]}")
        samples.append(parse_importtime(proc.stderr))
    return {f"import.{key}_ms": (statistics.median(s[key] for s in samples), "ms")
            for key in samples[0]}


def print_summary(args, report: dict) -> None:
    print(f"# {args.workload} seed={args.seed}: closed loop, 1 client, {report['passes']} passes of "
          f"{report['ops_per_pass']} operations; BLAS/OpenMP threads pinned to 1")
    for key, note in (
        ("setup_s", f"median of {SETUP_PROBES + 1} fresh interpreters"),
        ("wall_s", f"job of {report['passes']} passes"),
        ("cpu_s", f"same job; cpu/wall = {report['cpu_s'] / report['wall_s']:.3f}"),
        ("op_p50_ms", f"median over {report['ops_per_pass']} operations of each one's mean over the passes"),
        ("op_tail_ms", f"p{report['tail_percentile']:.2f} of {report['samples']} samples, "
                       f"{report['tail_beyond']} beyond"),
        ("peak_rss_mb", "ru_maxrss of the workload process"),
    ):
        print(f"#   {key:<12} {report[key]:.6g}  ({note})")
    print(f"#   failed_share {report['failed'] / report['attempted']:.6g}  "
          f"({report['failed']} of {report['attempted']} operations)")


def print_ledger(report: dict) -> None:
    if report["failures"]:
        print(f"# failed operations by check (all inputs in {report['ledger_file']}):")
    for group in report["failures"]:
        known = group["defect"] or "UNEXPECTED: not a known defect"
        print(f"#   {group['kind']} [{group['checks']}] x{group['count']}: {known}")
        for example in group["examples"]:
            print(f"#       e.g. {example}")
    print("# machine: " + json.dumps(report["machine"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "spinqec" / "__init__.py").is_file():
        print(f"no spinqec sources under {ROOT / 'src'}; run from a spinqec checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            report = spawn(args, "trace", deadline)
            metrics = dict(report["layers"])
            metrics.update(import_breakdown(deadline))
            print(f"# {args.workload} seed={args.seed}: per-layer metrics per traced pass "
                  f"(spans in {report['span_file']})")
            for name, (value, unit) in sorted(metrics.items()):
                print(f"#   {name:<48} {value:.6g} {unit}")
        else:
            setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            report = spawn(args, "run", deadline)
            report["setup_s"] = statistics.median(setups + [report["setup_s"]])
            print_summary(args, report)
            metrics = {name: (report[name], unit) for name, unit in END_TO_END}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_ledger(report)
    print(json.dumps({
        "correct": report["unexpected"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
