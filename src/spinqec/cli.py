"""Command-line driver emitting plot-ready, byte-reproducible CSV/JSON.

Subcommands
-----------
kl-scan         Knill-Laflamme discrepancy scan for a coherent-state code.
overlap-curve   |<0bar| R_y(theta) |1bar>| for the antipodal code on a grid.
recovery-sweep  Repeated syndrome-measurement recovery rounds.
gkp-table       Exhaustive shift-error syndrome table for a GKP code.
harmonics       Monopole harmonic values on a theta grid.
tail-check      Numeric vs asymptotic single-peak tail mass.

Every run is fully determined by (subcommand, config, seed).  Config
precedence is flags > --config JSON file > per-subcommand defaults, and
the effective config (everything except the output path) is echoed into
every output file.  Numbers are printed with 17 significant digits so
repeated runs are byte-identical; output goes to a uniquely named
temporary file in the target directory and is renamed into place, never
left partial and never clobbering another file.  Rows are computed
serially, one writer renders every table.

CSV output uses '.' decimals, comma separators, and a header row, with
the config on a leading '#' comment line.  JSON output is line-oriented
for sweeps (config object first, then one object per row) and a single
document for kl-scan; complex numbers appear as (re, im) pairs.

Exit codes: 0 success (thresholds met where applicable), 1 threshold
failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .spin_core import HalfInt
from .rotations import EulerAngles
from .lll_codes import antipodal, equatorial_qudit, build_codewords, matrix_element_table
from .qec_check import conjugated_y, equatorial_z, explicit_list, kl_check
from .recovery import recover, tail_failure
from .finite_gkp import GkpParams, build_gkp_code, syndrome_and_recover, tiling_window
from .monopole import harmonic_table

__all__ = ["main"]

_SUBCOMMANDS = (
    "kl-scan",
    "overlap-curve",
    "recovery-sweep",
    "gkp-table",
    "harmonics",
    "tail-check",
)

_DEFAULTS: dict[str, dict] = {
    "kl-scan": {
        "j": 8.0,
        "d": None,
        "family": None,
        "error_family": None,
        "phi0": 0.0,
        "theta_max": 0.2,
        "samples": 32,
        "epsilon": 1e-6,
        "delta": 1e-10,
        "seed": 0,
        "format": "json",
    },
    "overlap-curve": {
        "j": 4.0,
        "phi0": 0.0,
        "theta_max": math.pi,
        "samples": 33,
        "seed": 0,
        "format": "csv",
    },
    "recovery-sweep": {
        "j": 8.0,
        "d": 2,
        "input_k": 0,
        "delta": 0.0,
        "j_anc": None,
        "samples": 50,
        "seed": 0,
        "format": "json",
    },
    "gkp-table": {
        "k": 2,
        "r1": 3,
        "r2": 3,
        "n": None,
        "seed": 0,
        "format": "csv",
    },
    "harmonics": {
        "j": 0.0,
        "lmax": 2.0,
        "samples": 5,
        "thetas": None,
        "phis": [0.0],
        "seed": 0,
        "format": "csv",
    },
    "tail-check": {
        "j": 100.0,
        "epsilon": 0.3,
        "seed": 0,
        "format": "csv",
    },
}

# argparse dests that are also config keys, applied only when the flag was given
_FLAGS = (
    "j", "d", "n", "k", "r1", "r2", "theta_max", "epsilon", "delta", "seed", "format", "lmax",
    "samples",
)


# ---------------------------------------------------------------------------
# deterministic serialization


def _jtext(obj) -> str:
    """JSON with floats at 17 significant digits and complex as (re, im)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return "[%s, %s]" % ("%.17g" % obj.real, "%.17g" % obj.imag)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_jtext(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_jtext(v)}" for k, v in obj.items())
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _echoed(subcommand: str, cfg: dict) -> dict:
    echo = {"subcommand": subcommand}
    for key in sorted(cfg):
        if key != "out":
            echo[key] = cfg[key]
    return echo


def _emit(
    cfg: dict, name: str, header: list[str], rows: list[dict], summary: dict | None = None
) -> None:
    """Render the rows as cfg["format"] and write them to cfg["out"].

    JSON is one object per line, config first.  A summary (kl-scan)
    makes the JSON a single {config, summary, pairs} document and adds a
    second comment line to the CSV.
    """
    echo = _echoed(name, cfg)
    if cfg["format"] == "json":
        if summary is not None:
            text = _jtext({"config": echo, "summary": summary, "pairs": rows}) + "\n"
        else:
            text = "".join(_jtext(obj) + "\n" for obj in [{"config": echo}, *rows])
    else:
        buf = io.StringIO()
        buf.write("# config: " + _jtext(echo) + "\n")
        if summary is not None:
            buf.write("# summary: " + _jtext(summary) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_jtext(row[h]) for h in header] for row in rows)
        text = buf.getvalue()
    _write_output(cfg["out"], text)


def _write_output(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(out) + ".", suffix=".tmp", dir=os.path.dirname(out) or "."
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config assembly


def _load_config(subcommand: str, args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS[subcommand])
    cfg["out"] = None
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in overrides.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r} for {subcommand}")
            cfg[key] = value
    for key in _FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            if key not in cfg:
                raise ValueError(f"flag --{key} does not apply to {subcommand}")
            cfg[key] = value
    if args.out is not None:
        cfg["out"] = args.out
    if cfg["format"] not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {cfg['format']!r}")
    return cfg


def _angles_list(r: EulerAngles) -> list[float]:
    return [r.alpha, r.beta, r.gamma]


# ---------------------------------------------------------------------------
# subcommands


def cmd_kl_scan(cfg: dict) -> int:
    j = HalfInt.of(cfg["j"])
    family = cfg["family"]
    if family is None:
        family = "equatorial" if cfg["d"] is not None else "antipodal"
    if family == "antipodal":
        spec = antipodal(j, cfg["phi0"])
        errs = conjugated_y(cfg["phi0"], cfg["theta_max"], cfg["samples"])
    elif family == "equatorial":
        if cfg["d"] is None:
            raise ValueError("equatorial family needs d")
        spec = equatorial_qudit(j, int(cfg["d"]))
        errs = equatorial_z(cfg["theta_max"], cfg["samples"])
    else:
        raise ValueError(f"unknown family {family!r}")
    if cfg["error_family"] == "identity":
        errs = explicit_list([EulerAngles(0.0, 0.0, 0.0)])
    elif cfg["error_family"] is not None:
        raise ValueError(f"unknown error_family {cfg['error_family']!r}")

    code = build_codewords(spec)
    report = kl_check(code, errs, int(cfg["seed"]))
    passed = report.delta_star <= cfg["delta"] and report.eps_star <= cfg["epsilon"]
    summary = {
        "delta_star": report.delta_star,
        "eps_star": report.eps_star,
        "delta_threshold": cfg["delta"],
        "epsilon_threshold": cfg["epsilon"],
        "passed": passed,
        "worst_pair": [_angles_list(report.worst_pair[0]), _angles_list(report.worst_pair[1])],
    }
    rows = [
        {
            "t_alpha": rec.t.alpha,
            "t_beta": rec.t.beta,
            "t_gamma": rec.t.gamma,
            "delta": rec.delta,
            "eps": rec.eps,
        }
        for rec in report.pairs
    ]
    _emit(cfg, "kl-scan", ["t_alpha", "t_beta", "t_gamma", "delta", "eps"], rows, summary)
    return 0 if passed else 1


def cmd_overlap_curve(cfg: dict) -> int:
    j = HalfInt.of(cfg["j"])
    code = build_codewords(antipodal(j, cfg["phi0"]))
    thetas = np.linspace(0.0, cfg["theta_max"], int(cfg["samples"]))
    rows = [
        {
            "theta": float(theta),
            "magnitude": abs(matrix_element_table(code, EulerAngles(0.0, float(theta), 0.0))[0, 1]),
        }
        for theta in thetas
    ]
    _emit(cfg, "overlap-curve", ["theta", "magnitude"], rows)
    return 0


def cmd_recovery_sweep(cfg: dict) -> int:
    j = HalfInt.of(cfg["j"])
    j_anc = None if cfg["j_anc"] is None else HalfInt.of(cfg["j_anc"])
    seed = int(cfg["seed"])
    rows = [
        recover(
            j, int(cfg["d"]), int(cfg["input_k"]), float(cfg["delta"]), seed + i, j_anc=j_anc
        ).to_json_dict()
        for i in range(int(cfg["samples"]))
    ]
    header = [
        "j",
        "d",
        "input_k",
        "delta_phi",
        "measured_phi",
        "recovered_k",
        "fidelity",
        "raw_fidelity",
        "out_of_cell",
    ]
    _emit(cfg, "recovery-sweep", header, rows)
    return 0


def cmd_gkp_table(cfg: dict) -> int:
    params = GkpParams(int(cfg["k"]), int(cfg["r1"]), int(cfg["r2"]))
    if cfg["n"] is not None and int(cfg["n"]) != params.n:
        raise ValueError(f"N = {cfg['n']} contradicts k*r1*r2 = {params.n}")
    code = build_gkp_code(params)
    probe = code.codewords[0]
    rows = []
    for a in tiling_window(params.r1):
        for b in tiling_window(params.r2):
            out = syndrome_and_recover(params, a, b, probe)
            rows.append(
                {
                    "a": a,
                    "b": b,
                    "syndrome_a": out.syndrome_a,
                    "syndrome_b": out.syndrome_b,
                    "a_hat": out.a_hat,
                    "b_hat": out.b_hat,
                    "ambiguous": out.ambiguous,
                    "corrected": not out.logical_error,
                }
            )
    header = ["a", "b", "syndrome_a", "syndrome_b", "a_hat", "b_hat", "ambiguous", "corrected"]
    _emit(cfg, "gkp-table", header, rows)
    return 0


def cmd_harmonics(cfg: dict) -> int:
    j = HalfInt.of(cfg["j"])
    lmax = HalfInt.of(cfg["lmax"])
    if cfg["thetas"] is not None:
        thetas = [float(t) for t in cfg["thetas"]]
    else:
        thetas = [float(t) for t in np.linspace(0.0, math.pi, int(cfg["samples"]))]
    phis = [float(p) for p in cfg["phis"]]
    table = harmonic_table(j, lmax, thetas, phis)
    rows = [
        {"l": l, "m": m, "theta": t, "phi": p, "re": re, "im": im}
        for (l, m, t, p, re, im) in table
    ]
    _emit(cfg, "harmonics", ["l", "m", "theta", "phi", "re", "im"], rows)
    return 0


def cmd_tail_check(cfg: dict) -> int:
    est = tail_failure(HalfInt.of(cfg["j"]), float(cfg["epsilon"]))
    rows = [
        {
            "j": est.j.value,
            "epsilon": est.epsilon,
            "numeric_tail": est.numeric_tail,
            "laplace_tail": est.laplace_tail,
            "ratio": est.ratio,
        }
    ]
    _emit(cfg, "tail-check", ["j", "epsilon", "numeric_tail", "laplace_tail", "ratio"], rows)
    return 0


_HANDLERS = {
    "kl-scan": cmd_kl_scan,
    "overlap-curve": cmd_overlap_curve,
    "recovery-sweep": cmd_recovery_sweep,
    "gkp-table": cmd_gkp_table,
    "harmonics": cmd_harmonics,
    "tail-check": cmd_tail_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinqec",
        description="Reproducible sweeps over coherent-state and shift codes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--j", type=float)
        sp.add_argument("--d", type=int)
        sp.add_argument("--N", dest="n", type=int)
        sp.add_argument("--K", dest="k", type=int)
        sp.add_argument("--r1", type=int)
        sp.add_argument("--r2", type=int)
        sp.add_argument("--theta-max", dest="theta_max", type=float)
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", type=str)
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--lmax", type=float)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--config", type=str)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.subcommand, args)
        return _HANDLERS[args.subcommand](cfg)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
