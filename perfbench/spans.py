"""Spans around calls into spinqec's public functions, recorded from outside.

The traced run replaces selected module functions with wrappers, in
every spinqec module that holds them (``from .x import f`` copies the
name), so calls the library makes to itself are traced too.  Nothing in
the library changes.  Each span records its name, start, end, the span
that was open when it began (its parent) and the operation id; spans of
one benchmark operation share that id.  Hot scalar functions, called
hundreds of thousands of times per pass, are folded into one aggregate
record per (name, parent, operation) with a call count and total time.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from spinqec.spin_core import HalfInt

MIB = 2.0**20


def _dim(j) -> int:
    return HalfInt.of(j).dim


@dataclass(frozen=True)
class Target:
    """A public function to trace, and what to read from each call."""

    module: str
    function: str
    size: Callable[[tuple, dict], int] | None = None  # input size for exponent fits
    work: Callable[[Any], int] | None = None  # work units in the result
    name: Callable[[tuple, dict], str] | None = None  # span name, if not module.function
    aggregate: bool = False  # fold into counts instead of one span per call
    keep_largest: bool = False  # remember the largest call for an allocation probe


def _kl_name(args, kwargs) -> str:
    brute = kwargs.get("brute_force", args[3] if len(args) > 3 else False)
    return "qec_check.kl_check_brute" if brute else "qec_check.kl_check"


TARGETS = (
    Target("rotations", "wigner_d_matrix", size=lambda a, k: _dim(a[0]), keep_largest=True),
    Target("rotations", "wigner_D_matrix", size=lambda a, k: _dim(a[0])),
    Target("rotations", "wigner_d", aggregate=True),
    Target("rotations", "compose", aggregate=True),
    Target("spin_core", "matexp_antihermitian", size=lambda a, k: a[0].j.dim),
    Target("coherent", "rotation_matrix_element", aggregate=True),
    Target("coherent", "coherent_amplitudes", size=lambda a, k: _dim(a[0])),
    Target("coherent", "diagonal_operator", size=lambda a, k: _dim(a[0]), keep_largest=True),
    Target("coherent", "theta_rule"),
    Target("lll_codes", "build_codewords", size=lambda a, k: a[0].j.dim),
    Target("lll_codes", "matrix_element_table", aggregate=True),
    Target("lll_codes", "logical_operators", size=lambda a, k: a[0].j.dim),
    Target("qec_check", "kl_check", size=lambda a, k: a[0].spec.j.dim,
           work=lambda r: len(r.pairs), name=_kl_name),
    Target("recovery", "recover", size=lambda a, k: _dim(a[0])),
    Target("recovery", "tail_failure", size=lambda a, k: _dim(a[0])),
    Target("finite_gkp", "syndrome_and_recover", size=lambda a, k: a[0].n),
    Target("monopole", "harmonic_table"),
    Target("monopole", "build_full_landau_code"),
    Target("cli", "main", name=lambda a, k: "cli." + a[0][0]),
)


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self):
        # (span_id, parent_id, op_id, name, start_s, end_s, size, work)
        self.spans: list[tuple] = []
        # (name, parent_id, op_id) -> [calls, seconds]
        self.aggregates: dict[tuple, list] = {}
        # name -> (size, function, args, kwargs) of the largest call seen
        self.largest: dict[str, tuple] = {}
        self._stack: list[int] = [0]
        self._op_id = -1
        self._next_id = 1

    @contextmanager
    def span(self, name: str, size: int = 0):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        record = [sid, parent, self._op_id, name, start, 0.0, size, 0]
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()
            self.spans.append(tuple(record))

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one benchmark operation."""
        self._op_id = op_id
        with self.span("op." + kind):
            yield

    def wrap(self, target: Target, fn: Callable) -> Callable:
        default_name = f"{target.module}.{target.function}"

        if target.aggregate:
            def aggregated(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    key = (default_name, self._stack[-1], self._op_id)
                    entry = self.aggregates.setdefault(key, [0, 0.0])
                    entry[0] += 1
                    entry[1] += time.perf_counter() - start

            return aggregated

        def traced(*args, **kwargs):
            name = target.name(args, kwargs) if target.name else default_name
            size = target.size(args, kwargs) if target.size else 0
            if target.keep_largest and size > self.largest.get(name, (-1,))[0]:
                self.largest[name] = (size, fn, args, kwargs)
            with self.span(name, size) as record:
                result = fn(*args, **kwargs)
                if target.work:
                    record[7] = target.work(result)
                return result

        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every target in every loaded spinqec module; returns the undo."""
        modules = [m for n, m in sys.modules.items() if n == "spinqec" or n.startswith("spinqec.")]
        patched = []
        for target in TARGETS:
            orig = getattr(importlib.import_module("spinqec." + target.module), target.function)
            wrapper = self.wrap(target, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, orig))

        def restore():
            for module, attr, orig in patched:
                setattr(module, attr, orig)

        return restore

    def alloc_peak_mib(self, name: str) -> float:
        """tracemalloc peak of computed bytes allocated by the largest call."""
        if name not in self.largest:
            return 0.0
        _, fn, args, kwargs = self.largest[name]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()

    def dump(self, path, ops_meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op_id, name, start, end, size, work in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op_id, "name": name,
                                     "start": start, "end": end, "size": size, "work": work}) + "\n")
            for (name, parent, op_id), (calls, seconds) in self.aggregates.items():
                fh.write(json.dumps({"parent": parent, "op": op_id, "name": name,
                                     "calls": calls, "seconds": seconds}) + "\n")
            for op_id, (kind, label) in ops_meta.items():
                fh.write(json.dumps({"op": op_id, "kind": kind, "input": label}) + "\n")


def _fit_exponent(rows) -> float:
    """Slope of log(median time) against log(size) over distinct sizes."""
    by_size: dict[int, list[float]] = {}
    for size, dur in rows:
        if size > 0 and dur > 0.0:
            by_size.setdefault(size, []).append(dur)
    pts = [(math.log(s), math.log(statistics.median(d))) for s, d in by_size.items()]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(tracer: Tracer, ops_kind: dict, ops_category: dict, passes: int,
                  tally: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes; counts and busy time are per pass."""
    by_name: dict[str, list[tuple]] = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    agg_calls: dict[str, int] = {}
    agg_secs: dict[str, float] = {}
    for (name, _, _), (calls, secs) in tracer.aggregates.items():
        agg_calls[name] = agg_calls.get(name, 0) + calls
        agg_secs[name] = agg_secs.get(name, 0.0) + secs

    def spans(name, kinds=None, categories=None):
        out = by_name.get(name, [])
        if kinds is not None:
            out = [s for s in out if ops_kind.get(s[2]) in kinds]
        if categories is not None:
            out = [s for s in out if ops_category.get(s[2]) in categories]
        return out

    def calls(name):
        return (len(spans(name)) + agg_calls.get(name, 0)) / passes

    def busy(name):
        return (sum(s[5] - s[4] for s in spans(name)) + agg_secs.get(name, 0.0)) / passes

    def per_call_us(name):
        n = calls(name)
        return busy(name) / n * 1e6 if n else 0.0

    def p50_us(name, **filt):
        durs = [s[5] - s[4] for s in spans(name, **filt)]
        return statistics.median(durs) * 1e6 if durs else 0.0

    def exponent(name, **filt):
        return _fit_exponent((s[6], s[5] - s[4]) for s in spans(name, **filt))

    def work(name):
        return sum(s[7] for s in spans(name)) / passes

    def share(part, whole):
        return tally.get(part, 0) / tally[whole] if tally.get(whole) else 0.0

    kl_pairs = work("qec_check.kl_check")
    m = {
        "rotations.wigner_d_matrix.calls": (calls("rotations.wigner_d_matrix"), "count"),
        "rotations.wigner_d_matrix.busy_s": (busy("rotations.wigner_d_matrix"), "s"),
        "rotations.wigner_d_matrix.j_exponent": (exponent("rotations.wigner_d_matrix"), "slope"),
        "rotations.wigner_D_matrix.busy_s": (busy("rotations.wigner_D_matrix"), "s"),
        "spin_core.matexp_antihermitian.calls": (calls("spin_core.matexp_antihermitian"), "count"),
        "spin_core.matexp_antihermitian.busy_s": (busy("spin_core.matexp_antihermitian"), "s"),
        "coherent.rotation_matrix_element.calls": (calls("coherent.rotation_matrix_element"), "count"),
        "coherent.rotation_matrix_element.us_per_call": (per_call_us("coherent.rotation_matrix_element"), "us"),
        "coherent.coherent_amplitudes.busy_s": (busy("coherent.coherent_amplitudes"), "s"),
        "coherent.coherent_amplitudes.j_exponent": (
            exponent("coherent.coherent_amplitudes", kinds={"coherent.coherent_amplitudes"}), "slope"),
        "coherent.diagonal_operator.busy_s": (busy("coherent.diagonal_operator"), "s"),
        "coherent.diagonal_operator.j_exponent": (exponent("coherent.diagonal_operator"), "slope"),
        "coherent.theta_rule.busy_s": (busy("coherent.theta_rule"), "s"),
        "lll_codes.build_codewords.busy_s": (busy("lll_codes.build_codewords"), "s"),
        "lll_codes.matrix_element_table.us_per_call": (per_call_us("lll_codes.matrix_element_table"), "us"),
        "lll_codes.logical_operators.busy_s": (busy("lll_codes.logical_operators"), "s"),
        "qec_check.kl_check.calls": (calls("qec_check.kl_check"), "count"),
        "qec_check.kl_check.busy_s": (busy("qec_check.kl_check"), "s"),
        "qec_check.kl_check.pairs": (kl_pairs, "count"),
        "qec_check.kl_check.us_per_pair": (
            busy("qec_check.kl_check") / kl_pairs * 1e6 if kl_pairs else 0.0, "us"),
        "qec_check.kl_check.j_exponent": (
            exponent("qec_check.kl_check", categories={"ladder"}), "slope"),
        "qec_check.kl_check_brute.busy_s": (busy("qec_check.kl_check_brute"), "s"),
        "qec_check.kl_check_brute.pairs": (work("qec_check.kl_check_brute"), "count"),
        "qec_check.oracle_mismatch": (tally.get("qec_check.oracle_mismatch", 0) / passes, "count"),
        "recovery.recover.calls": (calls("recovery.recover"), "count"),
        "recovery.recover.busy_s": (busy("recovery.recover"), "s"),
        "recovery.recover.j_exponent": (
            exponent("recovery.recover", categories={"repeat", "fresh"}), "slope"),
        "recovery.recover.repeat_delta.p50_us": (p50_us("recovery.recover", categories={"repeat"}), "us"),
        "recovery.recover.fresh_delta.p50_us": (p50_us("recovery.recover", categories={"fresh"}), "us"),
        "recovery.recover.ancilla.p50_us": (p50_us("recovery.recover", categories={"ancilla"}), "us"),
        "recovery.tail_failure.busy_s": (busy("recovery.tail_failure"), "s"),
        "recovery.wrong_codeword_share": (share("recovery.wrong_codeword", "recovery.rounds"), "ratio"),
        "finite_gkp.syndrome_and_recover.calls": (calls("finite_gkp.syndrome_and_recover"), "count"),
        "finite_gkp.syndrome_and_recover.busy_s": (busy("finite_gkp.syndrome_and_recover"), "s"),
        "finite_gkp.syndrome_and_recover.p50_us": (p50_us("finite_gkp.syndrome_and_recover"), "us"),
        "finite_gkp.syndrome_and_recover.n_exponent": (
            exponent("finite_gkp.syndrome_and_recover", kinds={"finite_gkp.syndrome_and_recover"}), "slope"),
        "finite_gkp.logical_error_share": (share("finite_gkp.logical_error", "finite_gkp.rounds"), "ratio"),
        "monopole.harmonic_table.busy_s": (busy("monopole.harmonic_table"), "s"),
        "monopole.wigner_d_route.busy_s": (busy("op.monopole.wigner_d_route"), "s"),
        "monopole.build_full_landau_code.busy_s": (busy("monopole.build_full_landau_code"), "s"),
        "monopole.route_mismatch": (tally.get("monopole.route_mismatch", 0) / passes, "count"),
    }
    for sub in ("kl-scan", "overlap-curve", "recovery-sweep", "gkp-table", "harmonics", "tail-check"):
        m[f"cli.{sub}.busy_s"] = (busy(f"cli.{sub}"), "s")
    m["cli.bytes_written"] = (tally.get("cli.bytes_written", 0) / passes, "bytes")
    m["cli.byte_mismatch"] = (tally.get("cli.byte_mismatch", 0) / passes, "count")
    return m
