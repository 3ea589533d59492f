"""Experiment CLI: determinism, CSV contract, exit codes."""

import argparse
import csv

import numpy as np
import pytest

from sincfft.cli import _build_parser, main


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


@pytest.mark.parametrize("args", [
    ["nnfft-error", "--N", "32", "--M1", "8", "--M2", "8", "--m1", "3",
     "--sigma1", "2.0", "--reps", "0"],
    ["nnfft-error", "--N", "32", "--M1", "8", "--M2", "8", "--m1", "3",
     "--sigma1", "2.0", "--reps", "-1"],
    ["sinc-transform", "--N", "32", "--nu", "4", "--reps", "0"],
], ids=["nnfft-error-0", "nnfft-error-negative", "sinc-transform-0"])
def test_reps_below_one_exits_two(tmp_path, args):
    # zero draws give no measurement: a parameter error, and no file
    out = tmp_path / "x.csv"
    assert main(args + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("option", [["--N", "0"], ["--sigma1", "0"]],
                         ids=["N", "sigma1"])
def test_zero_bandwidth_or_oversampling_exits_two(tmp_path, option):
    # checked before the draws, whose band 0.5 / (1 + 2 m1/(sigma1 N))
    # would divide by zero
    args = {"--N": "32", "--M1": "8", "--M2": "8", "--m1": "3", "--sigma1": "2.0"}
    args[option[0]] = option[1]
    argv = ["nnfft-error", "--reps", "1", "--out", str(tmp_path / "x.csv")]
    assert main(argv + [item for pair in args.items() for item in pair]) == 2


def test_sinc_transform_m2_below_m1_leaves_bound_cells_empty(tmp_path):
    # sinh windows with m2 < m1 lie outside the two-stage bound, as in
    # nnfft-error: the row is written, its bound cells are empty
    out = tmp_path / "st.csv"
    rc = main(["sinc-transform", "--N", "32", "--nu", "4", "--reps", "1",
               "--m1", "6", "--m2", "4", "--out", str(out)])
    assert rc == 0
    row, = _read_rows(out)
    assert (row["m1"], row["m2"]) == ("6", "4")
    assert float(row["measured"]) < 1e-6
    for key in ("epsilon", "bound_full", "bound_simplified", "assump_ok"):
        assert row[key] == ""


# the header line and the leading parameter columns of every row, in order
SWEEPS = {
    "nnfft-error": (
        ["--N", "32", "--M1", "8", "--M2", "8", "--m1", "2", "4",
         "--sigma1", "1.5", "2.0", "--reps", "1"],
        "N,M1,M2,window1,window2,m1,m2,sigma1,sigma2,reps,seed,measured,bound",
        ["32,8,8,sinh,sinh,2,2,1.5,1.5,1,0", "32,8,8,sinh,sinh,4,4,1.5,1.5,1,0",
         "32,8,8,sinh,sinh,2,2,2,2,1,0", "32,8,8,sinh,sinh,4,4,2,2,1,0"]),
    "sinc-approx": (
        ["--N", "16", "32", "--nu", "4", "5", "--R", "200"],
        "N,nu,n,R,measured,bound",
        ["16,4,64,200", "16,5,80,200", "32,4,128,200", "32,5,160,200"]),
    "sinc-transform": (
        ["--N", "32", "64", "--nu", "4", "6", "--reps", "1"],
        "N,L1,L2,nu,n,m1,m2,sigma1,sigma2,window1,window2,reps,seed,measured,"
        "epsilon,bound_full,bound_simplified,assump_ok",
        ["32,16,32,4,128,6,6,2,2,sinh,sinh,1,0", "32,16,32,6,192,6,6,2,2,sinh,sinh,1,0",
         "64,32,64,4,256,6,6,2,2,sinh,sinh,1,0", "64,32,64,6,384,6,6,2,2,sinh,sinh,1,0"]),
    "bounds": (
        ["--N", "64", "128", "--m1", "3", "5", "--sigma1", "1.25", "2.0",
         "--nu", "6", "4"],
        "N,m1,m2,sigma1,sigma2,E1,E2,hat_phi1_half,a,nnfft_bound,cc_bound_nu6,"
        "cc_bound_nu4,fast_sinc_full,fast_sinc_simplified,assump_ok",
        ["64,3,3,1.25,1.25", "64,5,5,1.25,1.25", "64,3,3,2,2", "64,5,5,2,2",
         "128,3,3,1.25,1.25", "128,5,5,1.25,1.25", "128,3,3,2,2", "128,5,5,2,2"]),
}


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_header_and_row_order(tmp_path, command):
    args, header, leads = SWEEPS[command]
    out = tmp_path / "sweep.csv"
    assert main([command] + args + ["--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["# schema=1", header]
    assert len(lines) == 2 + len(leads)
    for line, lead in zip(lines[2:], leads):
        assert line.startswith(lead + ",")


WINDOW, PAPER, TIME = ("sinh", None, None), (False, 0, None), (False, 0, None)
# (dest, default, nargs, type) of every option but --help
OPTIONS = {
    "nnfft-error": {
        ("N", None, None, int), ("M1", None, None, int), ("M2", None, None, int),
        ("m1", None, "+", int), ("m2", None, None, int),
        ("sigma1", None, "+", float), ("sigma2", None, None, float),
        ("window1",) + WINDOW, ("window2",) + WINDOW,
        ("reps", None, None, int), ("seed", 0, None, int),
        ("paper",) + PAPER, ("out", "nnfft_error.csv", None, None), ("time",) + TIME},
    "sinc-approx": {
        ("N", None, "+", int), ("nu", None, "+", int), ("R", None, None, int),
        ("paper",) + PAPER, ("out", "sinc_approx.csv", None, None), ("time",) + TIME},
    "sinc-transform": {
        ("N", None, "+", int), ("nu", None, "+", int), ("L1", None, None, int),
        ("m1", 6, None, int), ("m2", 6, None, int),
        ("sigma1", 2.0, None, float), ("sigma2", 2.0, None, float),
        ("window1",) + WINDOW, ("window2",) + WINDOW,
        ("direct_cap", 2048, None, int), ("reps", None, None, int),
        ("seed", 0, None, int), ("paper",) + PAPER,
        ("out", "sinc_transform.csv", None, None), ("time",) + TIME},
    "bounds": {
        ("N", None, "+", int), ("m1", None, "+", int), ("m2", None, None, int),
        ("sigma1", None, "+", float), ("sigma2", None, None, float),
        ("nu", None, "+", int), ("out", "bounds.csv", None, None)},
}


def test_every_subcommand_keeps_its_options():
    parser = _build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTIONS)
    for name, expected in OPTIONS.items():
        actions = sub.choices[name]._actions
        assert {(a.dest, a.default, a.nargs, a.type)
                for a in actions if a.dest != "help"} == expected, name
        for action in actions:
            if action.dest in ("window1", "window2"):
                assert tuple(action.choices) == ("sinh", "bspline")
