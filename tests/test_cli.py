"""Command-line interface: exit codes, formats, and reproducibility."""

import json
import math
import os

import pytest

from spinqec.cli import main


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_kl_scan_default_passes(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["kl-scan", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["config", "pairs", "summary"]
    assert doc["config"]["subcommand"] == "kl-scan"
    assert doc["config"]["j"] == 8
    assert "out" not in doc["config"]
    assert doc["summary"]["passed"] is True
    assert doc["summary"]["delta_star"] <= doc["summary"]["delta_threshold"]
    assert doc["summary"]["eps_star"] <= doc["summary"]["epsilon_threshold"]
    assert len(doc["pairs"]) == 32 * 32
    assert set(doc["pairs"][0]) == {"t_alpha", "t_beta", "t_gamma", "delta", "eps"}


def test_kl_scan_failing_threshold_still_writes(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["kl-scan", "--epsilon", "1e-20", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["summary"]["passed"] is False
    assert not list(tmp_path.glob("*.tmp"))


def test_kl_scan_equatorial_needs_integer_j(tmp_path, capsys):
    out = tmp_path / "scan.json"
    assert main(["kl-scan", "--j", "7.5", "--d", "3", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 4.0, "bogus_key": 1}))
    assert main(["kl-scan", "--config", str(cfg)]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_inapplicable_flag_rejected(tmp_path, capsys):
    assert main(["tail-check", "--r1", "5"]) == 2
    assert "does not apply" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_overlap_curve_endpoints_and_doubling(tmp_path):
    out4 = tmp_path / "j4.csv"
    out8 = tmp_path / "j8.csv"
    assert main(["overlap-curve", "--out", str(out4)]) == 0
    assert main(["overlap-curve", "--j", "8", "--out", str(out8)]) == 0
    rows4 = _csv_rows(out4.read_text())
    rows8 = _csv_rows(out8.read_text())
    mags4 = [float(r["magnitude"]) for r in rows4]
    mags8 = [float(r["magnitude"]) for r in rows8]
    assert mags4[0] == 0.0
    assert abs(mags4[-1] - 1.0) < 1e-12
    assert all(a <= b + 1e-15 for a, b in zip(mags4, mags4[1:]))
    # doubling j squares the curve pointwise
    for m4, m8 in zip(mags4, mags8):
        assert abs(m8 - m4 * m4) < 1e-12
    # closed form at the midpoint: ((1 - cos(pi/2))/2)^4
    mid = mags4[len(mags4) // 2]
    assert abs(mid - 0.5**4) < 1e-12


def test_overlap_curve_large_j_closed_form(tmp_path):
    out = tmp_path / "j100.csv"
    assert main(["overlap-curve", "--j", "100", "--samples", "9", "--out", str(out)]) == 0
    rows = _csv_rows(out.read_text())
    thetas = [float(r["theta"]) for r in rows]
    mags = [float(r["magnitude"]) for r in rows]
    assert all(math.isfinite(m) for m in mags)
    assert mags[0] == 0.0
    assert mags[-1] == 1.0
    # |<0bar| R_y(theta) |1bar>| = sin^(2j)(theta/2), kept to relative accuracy
    for theta, mag in zip(thetas[1:], mags[1:]):
        want = math.sin(0.5 * theta) ** 200
        assert abs(mag - want) < 1e-12 * want


def test_gkp_table_default(tmp_path, capsys):
    assert main(["gkp-table"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 9
    assert all(r["corrected"] == "true" for r in rows)
    assert all(r["ambiguous"] == "false" for r in rows)
    for r in rows:
        assert r["a_hat"] == r["a"] and r["b_hat"] == r["b"]


def test_gkp_table_dimension_contradiction(capsys):
    assert main(["gkp-table", "--N", "10"]) == 2
    assert "contradicts" in capsys.readouterr().err


def test_gkp_table_even_spacing_boundary(tmp_path):
    out = tmp_path / "gkp.csv"
    assert main(["gkp-table", "--r1", "4", "--out", str(out)]) == 0
    rows = _csv_rows(out.read_text())
    assert len(rows) == 12  # tiling window of 4 by tiling window of 3
    boundary = [r for r in rows if r["a"] == "2"]
    assert boundary and all(r["ambiguous"] == "true" for r in boundary)


def test_harmonics_frozen_values(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["harmonics", "--out", str(out)]) == 0
    rows = _csv_rows(out.read_text())
    assert len(rows) == 9 * 5  # (l, m) pairs up to l = 2, five colatitudes
    mid = {
        (r["l"], r["m"]): float(r["re"])
        for r in rows
        if abs(float(r["theta"]) - math.pi / 2.0) < 1e-12
    }
    assert abs(mid[("0", "0")] - 0.28209479177387814) < 1e-13
    assert abs(mid[("2", "0")] - (-0.31539156525252001)) < 1e-13
    assert abs(mid[("2", "2")] - 0.38627420202318958) < 1e-13


def test_tail_check_frozen_row(capsys):
    assert main(["tail-check"]) == 0
    captured = capsys.readouterr().out
    rows = _csv_rows(captured)
    assert len(rows) == 1
    row = rows[0]
    assert row["j"] == "100"
    assert abs(float(row["ratio"]) - 0.8914158521) < 1e-9
    assert captured.splitlines()[0].startswith("# config:")


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 6.0, "epsilon": 0.2}))
    out = tmp_path / "tail.csv"
    assert main(["tail-check", "--config", str(cfg), "--j", "4", "--out", str(out)]) == 0
    text = out.read_text()
    echo = json.loads(text.splitlines()[0].removeprefix("# config: "))
    assert echo["j"] == 4  # flag beats config file
    assert echo["epsilon"] == 0.2  # config file beats default
    assert echo["subcommand"] == "tail-check"
    assert "out" not in echo


def test_recovery_sweep_json_lines(tmp_path):
    out = tmp_path / "sweep.jsonl"
    assert main(
        ["recovery-sweep", "--samples", "6", "--delta", "0.05", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    config = json.loads(lines[0])["config"]
    assert config["subcommand"] == "recovery-sweep"
    assert config["samples"] == 6
    for i, line in enumerate(lines[1:]):
        row = json.loads(line)
        assert row["j"] == 8
        assert row["input_k"] == 0
        assert 0.0 <= row["fidelity"] <= 1.0 + 1e-12
    # per-row seeds differ, so measured azimuths do too
    measured = {json.loads(line)["measured_phi"] for line in lines[1:]}
    assert len(measured) > 1


def test_byte_determinism_across_out_paths(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "sub" / "b.json"
    b.parent.mkdir()
    for target in (a, b):
        assert main(["kl-scan", "--j", "5", "--samples", "8", "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_byte_determinism_under_threads(tmp_path, monkeypatch):
    serial = tmp_path / "serial.jsonl"
    threaded = tmp_path / "threaded.jsonl"
    monkeypatch.setenv("SPINQEC_THREADS", "1")
    assert main(["recovery-sweep", "--samples", "8", "--out", str(serial)]) == 0
    monkeypatch.setenv("SPINQEC_THREADS", "4")
    assert main(["recovery-sweep", "--samples", "8", "--out", str(threaded)]) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_stdout_when_no_out_flag(capsys):
    assert main(["overlap-curve", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("# config:")
    assert "theta,magnitude" in out


def test_no_tmp_files_left_anywhere(tmp_path):
    out = tmp_path / "scan.json"
    main(["kl-scan", "--samples", "4", "--out", str(out)])
    main(["gkp-table", "--out", str(tmp_path / "t.csv")])
    leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
    assert not leftovers


def test_existing_tmp_sibling_survives(tmp_path):
    out = tmp_path / "scan.json"
    sibling = tmp_path / "scan.json.tmp"
    sibling.write_bytes(b"user data\n")
    assert main(["kl-scan", "--samples", "4", "--out", str(out)]) == 0
    assert sibling.read_bytes() == b"user data\n"
    assert json.loads(out.read_text())["summary"]["passed"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json", "scan.json.tmp"]


def test_failed_write_leaves_no_tmp_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()  # renaming a file onto a directory fails
    assert main(["tail-check", "--out", str(target)]) == 2
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert not list(target.iterdir())


def test_output_file_mode_follows_umask(tmp_path):
    out = tmp_path / "tail.csv"
    umask = os.umask(0o022)
    try:
        assert main(["tail-check", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o644
