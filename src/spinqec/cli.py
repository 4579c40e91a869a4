"""Command-line driver emitting plot-ready, byte-reproducible CSV/JSON.

Subcommands
-----------
kl-scan         Knill-Laflamme discrepancy scan for a coherent-state code.
overlap-curve   |<0bar| R_y(theta) |1bar>| for the antipodal code on a grid.
recovery-sweep  Repeated syndrome-measurement recovery rounds.
gkp-table       Exhaustive shift-error syndrome table for a GKP code.
harmonics       Monopole harmonic values on a theta grid.
tail-check      Numeric vs asymptotic single-peak tail mass.

One table, _SUBCOMMANDS, maps each subcommand name to its handler and
its defaults; the parser, the config loader and main all read it.

Every run is fully determined by (subcommand, config, seed).  Config
precedence is flags > --config JSON file > per-subcommand defaults, and
the effective config (everything except the output path) is echoed into
every output file.  Numbers are printed with 17 significant digits so
repeated runs are byte-identical; output goes to a uniquely named
temporary file in the target directory and is renamed into place, never
left partial and never clobbering another file.  The temporary file is
preallocated, so replacing an earlier output does not wait on the disk
(_write_output), and nothing is fsynced: this is a recorded decision,
since an fsync is that wait again.  The rename is atomic against readers
and crashes of the process, but a power loss before the kernel's
periodic writeback (seconds) may leave the output name holding zeros
of the new length, or the old output.  Without preallocation ext4
started that writeback at the rename, so the data was likely, though
never guaranteed, to be on disk.  Rows are computed serially.  Every
subcommand returns its table as columns of cells already
rendered as JSON text, float columns formatted in one pass each, and main
hands them to the one table writer, _emit; kl-scan takes its columns
straight from the scan arrays, recovery-sweep from the columns of one
block of rounds, and harmonics transposes harmonic_table's rows once.

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
import errno
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .spin_core import HalfInt, _finite, _integer, _real
from .rotations import EulerAngles
from .lll_codes import antipodal, equatorial_qudit, build_codewords, matrix_element_table
from .qec_check import conjugated_y, equatorial_z, explicit_list, kl_check
from .recovery import _rounds, tail_failure
from .finite_gkp import GkpParams, build_gkp_code, syndrome_and_recover, tiling_window
from .monopole import harmonic_table

__all__ = ["main"]

# (flag, config key, type) of every flag that sets a config key when given;
# "out" is the one key every subcommand has and no output echoes
_FLAGS = (
    ("--j", "j", float), ("--d", "d", int), ("--N", "n", int), ("--K", "k", int),
    ("--r1", "r1", int), ("--r2", "r2", int), ("--theta-max", "theta_max", float),
    ("--epsilon", "epsilon", float), ("--delta", "delta", float), ("--seed", "seed", int),
    ("--out", "out", str), ("--format", "format", str), ("--lmax", "lmax", float),
    ("--samples", "samples", int),
)


# ---------------------------------------------------------------------------
# deterministic serialization


_FLOAT = "%.17g"


def _jtext(obj) -> str:
    """JSON with floats at 17 significant digits and complex as (re, im)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _FLOAT % float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return "[%s, %s]" % (_FLOAT % obj.real, _FLOAT % obj.imag)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_jtext(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_jtext(v)}" for k, v in obj.items())
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_cells(values: np.ndarray) -> list[str]:
    """_jtext of every entry of a float64 array, in one pass.

    Each distinct bit pattern is formatted once (a scan column is often
    all zeros); keying on bits keeps -0.0 apart from 0.0.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = [_FLOAT % v for v in bits.view(np.float64).tolist()]
    return [texts[i] for i in inverse.tolist()]


def _echoed(subcommand: str, cfg: dict) -> dict:
    echo = {"subcommand": subcommand}
    for key in sorted(cfg):
        if key != "out":
            echo[key] = cfg[key]
    return echo


def _emit(cfg: dict, name: str, columns: dict[str, list[str]], summary: dict | None = None) -> None:
    """Render the table as cfg["format"] and write it to cfg["out"].

    columns maps each header field, in order, to its cells rendered as
    JSON text (_jtext, _float_cells).  JSON is one object per row and
    line, config first; a row object holds every column, as _jtext
    would print the row's dict.  A summary (kl-scan) makes the JSON a
    single {config, summary, pairs} document and adds a second comment
    line to the CSV.
    """
    echo = _echoed(name, cfg)
    rows = zip(*columns.values())
    if cfg["format"] == "json":
        fields = (json.dumps(h).replace("%", "%%") + ": %s" for h in columns)
        template = "{" + ", ".join(fields) + "}"
        objects = [template % cells for cells in rows]
        if summary is not None:
            text = '{"config": %s, "summary": %s, "pairs": [%s]}\n' % (
                _jtext(echo), _jtext(summary), ", ".join(objects)
            )
        else:
            text = "".join(obj + "\n" for obj in [_jtext({"config": echo}), *objects])
    else:
        buf = io.StringIO()
        buf.write("# config: " + _jtext(echo) + "\n")
        if summary is not None:
            buf.write("# summary: " + _jtext(summary) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns.keys())
        writer.writerows(rows)
        text = buf.getvalue()
    _write_output(cfg["out"], text)


def _write_output(out: str | None, text: str) -> None:
    """Write text to out, or to stdout when out is None.

    The UTF-8 bytes go into a new file under a random name beside out,
    created 0666 so the kernel applies the umask (reading the umask
    would set it process-wide for an instant, under every thread), and
    are renamed over out.  The file is preallocated first.  On ext4 a
    rename over an existing file forces the new file's delayed-allocation
    blocks to disk (auto_da_alloc), and the next run that replaces it
    then waits tens of milliseconds freeing written blocks.  With the
    blocks allocated up front the rename starts no writeback.  Where the
    OS or the filesystem has no preallocation the write proceeds
    without it; any other error, such as ENOSPC, propagates.
    Nothing is fsynced; see the module docstring.
    """
    if out is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = f"{out}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            pass
    try:
        with os.fdopen(fd, "wb") as fh:
            if hasattr(os, "posix_fallocate"):  # absent on macOS and Windows
                try:
                    os.posix_fallocate(fd, 0, len(data))
                except OSError as exc:
                    if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL):
                        raise
            fh.write(data)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config assembly


def _load_config(subcommand: str, args: argparse.Namespace) -> dict:
    cfg = dict(_SUBCOMMANDS[subcommand][1])
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
    for flag, key, _ in _FLAGS:
        value = getattr(args, key)
        if value is not None:
            if key not in cfg:
                raise ValueError(f"flag {flag} does not apply to {subcommand}")
            cfg[key] = value
    if cfg["format"] not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {cfg['format']!r}")
    return cfg


def _angles_list(r: EulerAngles) -> list[float]:
    return [r.alpha, r.beta, r.gamma]


# ---------------------------------------------------------------------------
# subcommands: each returns (columns, summary or None, exit status), and
# main hands the table to _emit before returning the status


def cmd_kl_scan(cfg: dict):
    for key in ("delta", "epsilon"):
        if not 0.0 <= _real(key, cfg[key]) < math.inf:
            raise ValueError(f"{key} must be finite and nonnegative, got {cfg[key]!r}")
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
        spec = equatorial_qudit(j, cfg["d"])
        errs = equatorial_z(cfg["theta_max"], cfg["samples"])
    else:
        raise ValueError(f"unknown family {family!r}")
    if cfg["error_family"] == "identity":
        errs = explicit_list([EulerAngles(0.0, 0.0, 0.0)])
    elif cfg["error_family"] is not None:
        raise ValueError(f"unknown error_family {cfg['error_family']!r}")

    code = build_codewords(spec)
    report = kl_check(code, errs, _integer("seed", cfg["seed"]))
    passed = report.delta_star <= cfg["delta"] and report.eps_star <= cfg["epsilon"]
    summary = {
        "delta_star": report.delta_star,
        "eps_star": report.eps_star,
        "delta_threshold": cfg["delta"],
        "epsilon_threshold": cfg["epsilon"],
        "passed": passed,
        "worst_pair": [_angles_list(report.worst_pair[0]), _angles_list(report.worst_pair[1])],
    }
    header = ["t_alpha", "t_beta", "t_gamma", "delta", "eps"]
    columns = dict(zip(header, map(_float_cells, report._pair_columns())))
    return columns, summary, 0 if passed else 1


def cmd_overlap_curve(cfg: dict):
    code = build_codewords(antipodal(HalfInt.of(cfg["j"]), cfg["phi0"]))
    theta_max = _finite("theta_max", cfg["theta_max"])
    thetas = np.linspace(0.0, theta_max, _integer("samples", cfg["samples"]))
    rotations = (EulerAngles(0.0, theta, 0.0) for theta in thetas.tolist())
    magnitudes = [abs(matrix_element_table(code, r)[0, 1]) for r in rotations]
    return {"theta": _float_cells(thetas), "magnitude": _float_cells(np.array(magnitudes))}, None, 0


def cmd_recovery_sweep(cfg: dict):
    samples = _integer("samples", cfg["samples"])
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    seed = _integer("seed", cfg["seed"])
    (j, d, k, delta_phi, out_of_cell), (measured, recovered, fidelity, raw_fidelity) = _rounds(
        cfg["j"], cfg["d"], cfg["input_k"], cfg["delta"], range(seed, seed + samples), cfg["j_anc"]
    )
    constant = {"j": j.value, "d": d, "input_k": k, "delta_phi": delta_phi}
    columns = {name: [_jtext(value)] * samples for name, value in constant.items()}
    columns["measured_phi"] = _float_cells(measured)
    columns["recovered_k"] = [str(a) for a in recovered.tolist()]
    columns["fidelity"] = _float_cells(fidelity)
    columns["raw_fidelity"] = _float_cells(raw_fidelity)
    columns["out_of_cell"] = [_jtext(out_of_cell)] * samples
    return columns, None, 0


def cmd_gkp_table(cfg: dict):
    params = GkpParams(cfg["k"], cfg["r1"], cfg["r2"])
    if cfg["n"] is not None and _integer("n", cfg["n"]) != params.n:
        raise ValueError(f"N = {cfg['n']} contradicts k*r1*r2 = {params.n}")
    probe = build_gkp_code(params).codewords[0]
    rows = []
    for a in tiling_window(params.r1):
        for b in tiling_window(params.r2):
            out = syndrome_and_recover(params, a, b, probe)
            fields = (out.syndrome_a, out.syndrome_b, out.a_hat, out.b_hat, out.ambiguous)
            rows.append((a, b, *fields, not out.logical_error))
    header = ["a", "b", "syndrome_a", "syndrome_b", "a_hat", "b_hat", "ambiguous", "corrected"]
    return {h: list(map(_jtext, cells)) for h, cells in zip(header, zip(*rows))}, None, 0


def cmd_harmonics(cfg: dict):
    thetas = cfg["thetas"]
    if thetas is None:
        thetas = np.linspace(0.0, math.pi, _integer("samples", cfg["samples"]))
    table = harmonic_table(HalfInt.of(cfg["j"]), HalfInt.of(cfg["lmax"]), thetas, cfg["phis"])
    header = ["l", "m", "theta", "phi", "re", "im"]
    return dict(zip(header, map(_float_cells, np.array(table, float).reshape(-1, 6).T))), None, 0


def cmd_tail_check(cfg: dict):
    est = tail_failure(HalfInt.of(cfg["j"]), cfg["epsilon"])
    header = ["j", "epsilon", "numeric_tail", "laplace_tail", "ratio"]
    row = (est.j.value, est.epsilon, est.numeric_tail, est.laplace_tail, est.ratio)
    return {h: [_jtext(value)] for h, value in zip(header, row)}, None, 0


# Each subcommand's (handler, defaults), in the order the parser lists them.
_SUBCOMMANDS = {
    "kl-scan": (cmd_kl_scan, {
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
    }),
    "overlap-curve": (cmd_overlap_curve, {
        "j": 4.0,
        "phi0": 0.0,
        "theta_max": math.pi,
        "samples": 33,
        "seed": 0,
        "format": "csv",
    }),
    "recovery-sweep": (cmd_recovery_sweep, {
        "j": 8.0,
        "d": 2,
        "input_k": 0,
        "delta": 0.0,
        "j_anc": None,
        "samples": 50,
        "seed": 0,
        "format": "json",
    }),
    "gkp-table": (cmd_gkp_table, {
        "k": 2,
        "r1": 3,
        "r2": 3,
        "n": None,
        "seed": 0,
        "format": "csv",
    }),
    "harmonics": (cmd_harmonics, {
        "j": 0.0,
        "lmax": 2.0,
        "samples": 5,
        "thetas": None,
        "phis": [0.0],
        "seed": 0,
        "format": "csv",
    }),
    "tail-check": (cmd_tail_check, {
        "j": 100.0,
        "epsilon": 0.3,
        "seed": 0,
        "format": "csv",
    }),
}


# Built once per process: parse_args reads the parser and never changes it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinqec",
        description="Reproducible sweeps over coherent-state and shift codes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        for flag, key, kind in _FLAGS:
            choices = ("csv", "json") if key == "format" else None
            sp.add_argument(flag, dest=key, type=kind, choices=choices)
        sp.add_argument("--config", type=str)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.subcommand, args)
        columns, summary, status = _SUBCOMMANDS[args.subcommand][0](cfg)
        _emit(cfg, args.subcommand, columns, summary)
        return status
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
