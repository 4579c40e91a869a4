"""Command-line interface: exit codes, formats, and reproducibility."""

import errno
import json
import math
import os

import pytest

from spinqec import cli
from spinqec.cli import main
from spinqec.lll_codes import antipodal, build_codewords
from spinqec.qec_check import conjugated_y, kl_check


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_kl_scan_rows_match_report_pairs(tmp_path, fmt):
    # the rows are written from the scan columns; report.pairs is built
    # from the same arrays as records, and the two must not drift apart
    out = tmp_path / f"scan.{fmt}"
    argv = ["kl-scan", "--j", "7.5", "--theta-max", "0.3", "--samples", "12", "--seed", "5"]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    if fmt == "json":
        rows = json.loads(out.read_text())["pairs"]
    else:
        rows = [{k: float(v) for k, v in row.items()} for row in _csv_rows(out.read_text())]
    report = kl_check(build_codewords(antipodal(7.5, 0.0)), conjugated_y(0.0, 0.3, 12), 5)
    assert len(rows) == len(report.pairs) == 144
    assert any(rec.t.beta != 0.0 for rec in report.pairs)
    for row, rec in zip(rows, report.pairs):
        want = {"t_alpha": rec.t.alpha, "t_beta": rec.t.beta, "t_gamma": rec.t.gamma,
                "delta": rec.delta, "eps": rec.eps}
        assert row == want


def test_kl_scan_failing_threshold_still_writes(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["kl-scan", "--epsilon", "1e-20", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["summary"]["passed"] is False
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "flag,value",
    [("delta", "inf"), ("delta", "nan"), ("delta", "-0.5"), ("epsilon", "nan"), ("epsilon", "-1")],
)
def test_kl_scan_rejects_bad_thresholds(tmp_path, capsys, flag, value):
    # inf used to pass every scan and write "delta": inf, which is not JSON;
    # nan and negative thresholds ran the scan and wrote a verdict
    out = tmp_path / "scan.json"
    assert main(["kl-scan", f"--{flag}", value, "--out", str(out)]) == 2
    assert f"{flag} must be finite and nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("subcommand", ["kl-scan", "recovery-sweep"])
def test_fractional_config_d_rejected(tmp_path, capsys, subcommand):
    # kl-scan read "d": 2.5 as d = 2
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_text(json.dumps({"j": 8, "d": 2.5}))
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert "d must be an integer, got 2.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand,overrides,message",
    [
        ("gkp-table", {"k": 2.5}, "k must be an integer, got 2.5"),
        ("gkp-table", {"n": 18.5}, "n must be an integer, got 18.5"),
        ("overlap-curve", {"samples": 3.7}, "samples must be an integer, got 3.7"),
        ("recovery-sweep", {"samples": 2.5}, "samples must be an integer, got 2.5"),
        ("recovery-sweep", {"input_k": 1.5}, "k must be an integer, got 1.5"),
        ("recovery-sweep", {"seed": 0.5}, "seed must be an integer, got 0.5"),
        ("harmonics", {"samples": 2.5}, "samples must be an integer, got 2.5"),
        ("kl-scan", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("kl-scan", {"samples": 2.5}, "samples must be an integer, got 2.5"),
    ],
    ids=["gkp-k", "gkp-n", "overlap-samples", "sweep-samples", "sweep-input_k", "sweep-seed", "harmonics-samples",
         "kl-seed", "kl-samples"],
)
def test_fractional_config_counts_rejected(tmp_path, capsys, subcommand, overrides, message):
    # each ran truncated (k = 2, 3 rows, 2 rows, k = 1, ...) and exited 0;
    # kl-scan's samples failed inside numpy
    out = tmp_path / "out.txt"
    assert main([subcommand, *_with_config(tmp_path, overrides), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand,overrides,message",
    [
        ("kl-scan", {"j": "8"}, "value must be a real number, got '8'"),
        ("kl-scan", {"theta_max": "0.2"}, "max_angle must be a real number, got '0.2'"),
        ("kl-scan", {"epsilon": "1e-6"}, "epsilon must be a real number, got '1e-6'"),
        ("overlap-curve", {"theta_max": "1.5"}, "theta_max must be a real number, got '1.5'"),
        ("tail-check", {"epsilon": "0.3"}, "epsilon must be a real number, got '0.3'"),
        ("harmonics", {"thetas": ["0.3"]}, "theta must be a real number, got '0.3'"),
        ("harmonics", {"phis": ["0.1"]}, "phi must be a real number, got '0.1'"),
        ("recovery-sweep", {"delta": "0.1"}, "delta_phi must be a real number, got '0.1'"),
    ],
    ids=["kl-j", "kl-theta_max", "kl-epsilon", "overlap-theta_max", "tail-epsilon", "harmonics-thetas",
         "harmonics-phis", "sweep-delta"],
)
def test_string_config_reals_rejected(tmp_path, capsys, subcommand, overrides, message):
    # float() parsed each string, which ran as a number and was echoed,
    # a string, into the output's config line
    out = tmp_path / "out.txt"
    assert main([subcommand, *_with_config(tmp_path, overrides), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"delta": True}, "delta must be a real number, got True"),
        ({"j": True}, "value must be a real number, got True"),
    ],
    ids=["delta", "j"],
)
def test_kl_scan_bool_reals_rejected(tmp_path, capsys, overrides, message):
    # float() read true as 1: the scan ran at j = 1, or against a threshold
    # echoed as true into the config and the summary
    out = tmp_path / "scan.json"
    assert main(["kl-scan", *_with_config(tmp_path, overrides), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_harmonics_bool_in_a_list_of_reals_rejected(tmp_path, capsys):
    # numpy read [0.3, true] as the floats [0.3, 1.0]: the table ran at
    # theta = 1 and echoed true into its config line
    out = tmp_path / "harmonics.csv"
    assert main(["harmonics", *_with_config(tmp_path, {"thetas": [0.3, True]}), "--out", str(out)]) == 2
    assert "theta must be a real number, got True" in capsys.readouterr().err
    assert not out.exists()


def test_kl_scan_string_threshold_rejected_before_the_scan(tmp_path, capsys, monkeypatch):
    # the scan ran in full, then comparing against the string exited 2
    # with "'<=' not supported between instances of 'float' and 'str'"
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli, "kl_check", no_scan)
    out = tmp_path / "scan.json"
    assert main(["kl-scan", *_with_config(tmp_path, {"delta": "0.5"}), "--out", str(out)]) == 2
    assert "delta must be a real number, got '0.5'" in capsys.readouterr().err
    assert not out.exists()


def test_recovery_sweep_reads_j_anc_as_recover_does(tmp_path, capsys):
    # the sweep read j_anc on its own and failed inside numpy with "a <= 0"
    out = tmp_path / "runs.jsonl"
    assert main(["recovery-sweep", *_with_config(tmp_path, {"j_anc": -3}), "--out", str(out)]) == 2
    assert "spin label must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_inapplicable_flag_rejected(tmp_path, capsys):
    assert main(["tail-check", "--r1", "5"]) == 2
    assert "does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--theta-max", "1"], ["--N", "5"]])
def test_inapplicable_flag_named_as_typed(capsys, argv):
    # the message used to name the config key: --theta_max, --n
    assert main(["tail-check", *argv]) == 2
    assert capsys.readouterr().err == f"error: flag {argv[0]} does not apply to tail-check\n"


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_parser_reused_without_leaking_flags(tmp_path, capsys):
    from spinqec.cli import _build_parser

    assert _build_parser() is _build_parser()
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    assert main(["gkp-table", "--out", str(paths[0])]) == 0
    assert main(["gkp-table", "--K", "2", "--r1", "4", "--r2", "6", "--out", str(paths[1])]) == 0
    assert main(["gkp-table", "--out", str(paths[2])]) == 0
    first, flagged, again = (p.read_bytes() for p in paths)
    assert again == first and flagged != first
    # --r1 from an earlier call would be rejected by tail-check
    assert main(["tail-check"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["tail-check", "--bogus"])
    assert exc.value.code == 2
    assert main(["tail-check", "--r1", "5"]) == 2
    assert main(["tail-check"]) == 0


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


def test_gkp_table_refuses_an_impossible_n(tmp_path, capsys):
    # N = 6e13: numpy raised its ArrayMemoryError for 1.71 PiB of codewords
    out = tmp_path / "gkp.csv"
    assert main(["gkp-table", "--K", "2", "--r1", str(10**13), "--r2", "3", "--out", str(out)]) == 2
    assert "N = 60000000000000: 2 x 60000000000000 entries of 16 bytes" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--j", "1", "--d", "9", "--samples", "0"], "2 <= d <= 2j + 1"),
        (["--j", "1.5", "--samples", "0"], "integer j"),
        (["--delta", "nan", "--samples", "0"], "delta_phi must be finite"),
        (["--samples", "-3"], "samples must be nonnegative"),
    ],
)
def test_recovery_sweep_rejects_invalid_rounds(tmp_path, capsys, argv, message):
    # the round is checked before any round runs, so an empty sweep of an
    # invalid code no longer writes a header-only table
    out = tmp_path / "sweep.csv"
    assert main(["recovery-sweep", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "fmt,text",
    [
        (
            "csv",
            '# config: {"subcommand": "recovery-sweep", "d": 2, "delta": 0, "format": "csv", '
            '"input_k": 0, "j": 8, "j_anc": null, "samples": 0, "seed": 0}\n'
            "j,d,input_k,delta_phi,measured_phi,recovered_k,fidelity,raw_fidelity,out_of_cell\n",
        ),
        (
            "json",
            '{"config": {"subcommand": "recovery-sweep", "d": 2, "delta": 0, "format": "json", '
            '"input_k": 0, "j": 8, "j_anc": null, "samples": 0, "seed": 0}}\n',
        ),
    ],
)
def test_recovery_sweep_without_rounds_writes_header_only(tmp_path, fmt, text):
    out = tmp_path / "sweep.txt"
    assert main(["recovery-sweep", "--samples", "0", "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text() == text


def test_byte_determinism_across_out_paths(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "sub" / "b.json"
    b.parent.mkdir()
    for target in (a, b):
        assert main(["kl-scan", "--j", "5", "--samples", "8", "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_byte_determinism_across_repeated_runs(tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    assert main(["recovery-sweep", "--samples", "8", "--out", str(first)]) == 0
    assert main(["recovery-sweep", "--samples", "8", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


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


def test_output_preallocated_before_any_byte(tmp_path, monkeypatch):
    calls = []

    def spy(fd, offset, length):
        calls.append((offset, length, os.fstat(fd).st_size))

    monkeypatch.setattr(os, "posix_fallocate", spy, raising=False)
    out = tmp_path / "t.txt"
    text = "θ = π/2\n"  # 8 characters, 10 bytes
    cli._write_output(str(out), text)
    assert calls == [(0, 10, 0)]
    assert out.read_bytes() == text.encode("utf-8")


def _stdout_bytes(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("refusal", ["eopnotsupp", "absent"])
def test_output_written_without_preallocation(tmp_path, capsys, monkeypatch, refusal):
    argv = ["gkp-table", "--format", "json"]
    expected = _stdout_bytes(capsys, argv)
    if refusal == "absent":  # as on macOS
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
    else:
        def refuse(fd, offset, length):
            raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))

        monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
    out = tmp_path / "t.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


def test_preallocation_failure_exits_2_and_keeps_old_output(tmp_path, capsys, monkeypatch):
    out = tmp_path / "tail.csv"
    assert main(["tail-check", "--out", str(out)]) == 0
    before = out.read_bytes()

    def full(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
    assert main(["gkp-table", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["tail.csv"]


def test_write_does_not_touch_the_process_umask(tmp_path, monkeypatch):
    def forbidden(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", forbidden)
    out = tmp_path / "tail.csv"
    assert main(["tail-check", "--out", str(out)]) == 0
    assert out.read_text().startswith("# config: ")


def test_rewrites_replace_the_file_atomically(tmp_path):
    # each write is a new inode renamed into place, never an overwrite of
    # the old one, so a reader holding the old file keeps its bytes
    out = tmp_path / "t.csv"
    argv = ["gkp-table", "--out", str(out)]
    inodes, texts = [], []
    for _ in range(5):
        assert main(argv) == 0
        inodes.append(out.stat().st_ino)
        texts.append(out.read_bytes())
    assert all(text == texts[0] for text in texts)
    assert all(a != b for a, b in zip(inodes, inodes[1:]))
    with open(out, "rb") as old:
        assert main(["tail-check", "--out", str(out)]) == 0
        assert os.fstat(old.fileno()).st_ino != out.stat().st_ino
        assert old.read() == texts[0]
    assert out.read_bytes() != texts[0]


def _with_config(tmp_path, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(overrides if isinstance(overrides, str) else json.dumps(overrides))
    return ["--config", str(cfg)]


@pytest.mark.parametrize("argv,code", [([], 0), (["--j", "6", "--d", "3"], 1)], ids=["antipodal", "equatorial-6-3"])
def test_kl_scan_identity_error_family(tmp_path, argv, code):
    # one pair, T = identity: the report is the codewords' gram matrix
    out = tmp_path / "scan.json"
    config = _with_config(tmp_path, {"error_family": "identity"})
    assert main(["kl-scan", *argv, *config, "--out", str(out)]) == code
    doc = json.loads(out.read_text())
    assert [(p["t_alpha"], p["t_beta"], p["t_gamma"]) for p in doc["pairs"]] == [(0.0, 0.0, 0.0)]
    if code:
        # equatorial codewords 2pi/3 apart overlap by cos(pi/3)^(2j) = 0.5^12
        assert abs(doc["summary"]["eps_star"] - 2.0**-12) <= 1e-14
        assert doc["summary"]["passed"] is False


@pytest.mark.parametrize(
    "fmt,text",
    [
        (
            "csv",
            '# config: {"subcommand": "harmonics", "format": "csv", "j": 2, "lmax": 1, '
            '"phis": [0], "samples": 5, "seed": 0, "thetas": null}\n'
            "l,m,theta,phi,re,im\n",
        ),
        (
            "json",
            '{"config": {"subcommand": "harmonics", "format": "json", "j": 2, "lmax": 1, '
            '"phis": [0], "samples": 5, "seed": 0, "thetas": null}}\n',
        ),
    ],
)
def test_harmonics_below_lowest_shell_writes_header_only(tmp_path, fmt, text):
    # l starts at |j|, so lmax = 1 < j = 2 leaves no harmonic to tabulate
    out = tmp_path / "table.txt"
    assert main(["harmonics", "--j", "2", "--lmax", "1", "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text() == text


def test_harmonics_config_thetas(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["harmonics", *_with_config(tmp_path, {"thetas": [0.1, 0.2]}), "--out", str(out)]) == 0
    rows = _csv_rows(out.read_text())
    assert len(rows) == 9 * 2
    assert {float(r["theta"]) for r in rows} == {0.1, 0.2}


@pytest.mark.parametrize(
    "argv,overrides,message",
    [
        (["kl-scan"], {"family": "equatorial"}, "equatorial family needs d"),
        (["kl-scan"], {"family": "polar"}, "unknown family 'polar'"),
        (["kl-scan"], {"error_family": "drift"}, "unknown error_family 'drift'"),
        (["tail-check"], "[1, 2]", "config file must hold a JSON object"),
        (["tail-check"], {"format": "xml"}, "format must be csv or json, got 'xml'"),
    ],
    ids=["equatorial-without-d", "unknown-family", "unknown-error-family", "config-list", "format-xml"],
)
def test_config_errors_exit_2(tmp_path, capsys, argv, overrides, message):
    out = tmp_path / "out.txt"
    assert main([*argv, *_with_config(tmp_path, overrides), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_jtext_complex_and_unknown_types():
    from spinqec.cli import _jtext

    assert _jtext(1 + 2j) == "[1, 2]"
    with pytest.raises(TypeError, match="cannot serialize object"):
        _jtext(object())
