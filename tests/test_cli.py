"""Experiment CLI: determinism, CSV contract, exit codes."""

import csv

import numpy as np
import pytest

from sincfft.cli import main


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema=1"
    reader = csv.DictReader(lines[1:])
    return list(reader)


def test_nnfft_error_deterministic_bytes(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["nnfft-error", "--N", "32", "--M1", "10", "--M2", "12",
            "--m1", "3", "--sigma1", "2.0", "--reps", "1", "--seed", "99"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_nnfft_error_sweep_content(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["nnfft-error", "--N", "64", "--M1", "16", "--M2", "16",
               "--m1", "2", "4", "--sigma1", "1.5", "2.0",
               "--reps", "3", "--seed", "5", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 4
    for row in rows:
        assert row["window1"] == "sinh"
        assert float(row["measured"]) <= float(row["bound"])
        assert int(row["N"]) == 64
    # different seeds give different measurements
    out2 = tmp_path / "sweep2.csv"
    main(["nnfft-error", "--N", "64", "--M1", "16", "--M2", "16",
          "--m1", "2", "4", "--sigma1", "1.5", "2.0",
          "--reps", "3", "--seed", "6", "--out", str(out2)])
    rows2 = _read_rows(out2)
    assert rows[0]["measured"] != rows2[0]["measured"]


def test_nnfft_error_non_sinh_bound_empty(tmp_path):
    out = tmp_path / "bs.csv"
    rc = main(["nnfft-error", "--N", "32", "--M1", "8", "--M2", "8",
               "--m1", "4", "--sigma1", "2.0", "--window1", "bspline",
               "--window2", "bspline", "--reps", "2", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0]["bound"] == ""
    assert float(rows[0]["measured"]) < 1e-2


def test_time_column_optional(tmp_path):
    out = tmp_path / "t.csv"
    main(["nnfft-error", "--N", "32", "--M1", "8", "--M2", "8", "--m1", "3",
          "--sigma1", "2.0", "--reps", "1", "--time", "--out", str(out)])
    rows = _read_rows(out)
    assert "time_s" in rows[0]
    assert float(rows[0]["time_s"]) > 0.0


def test_sinc_approx_rows(tmp_path):
    out = tmp_path / "sa.csv"
    rc = main(["sinc-approx", "--N", "16", "32", "--nu", "4", "5",
               "--R", "2000", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 4
    for row in rows:
        assert int(row["n"]) == int(row["N"]) * int(row["nu"])
        assert float(row["measured"]) <= max(float(row["bound"]), 1e-12)


def test_sinc_transform_rows(tmp_path):
    out = tmp_path / "st.csv"
    rc = main(["sinc-transform", "--N", "32", "--nu", "4", "--reps", "2",
               "--seed", "11", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert int(row["L1"]) == 16 and int(row["L2"]) == 32
    assert float(row["measured"]) <= float(row["bound_full"])
    assert row["assump_ok"] == "1"
    assert 0.0 < float(row["epsilon"]) <= float(row["bound_full"])


def test_sinc_transform_direct_cap(tmp_path):
    out = tmp_path / "capped.csv"
    rc = main(["sinc-transform", "--N", "64", "--nu", "4", "--reps", "1",
               "--direct-cap", "32", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0]["measured"] == ""  # oracle skipped above the cap


def test_bounds_table(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = main(["bounds", "--N", "128", "--m1", "4", "6", "--sigma1", "2.0",
               "--nu", "4", "6", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 2
    assert "cc_bound_nu4" in rows[0] and "cc_bound_nu6" in rows[0]
    m4 = [float(r["nnfft_bound"]) for r in rows]
    assert m4[1] < m4[0]


def test_exit_code_parameter_error(tmp_path):
    # sigma outside the sinh range surfaces as exit code 2, not a traceback
    rc = main(["nnfft-error", "--N", "32", "--M1", "4", "--M2", "4",
               "--m1", "3", "--sigma1", "3.0", "--reps", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_infinite_sigma2_exits_two(tmp_path):
    # a non-finite oversampling factor is a parameter error, not a numeric one
    rc = main(["nnfft-error", "--N", "32", "--M1", "4", "--M2", "4",
               "--m1", "3", "--sigma1", "2.0", "--sigma2", "inf", "--reps", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
