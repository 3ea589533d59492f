"""End-to-end acceptance checks.

Each test covers one shipping criterion, prints a single ``[PASS]`` /
``[FAIL]`` line with the headline numbers, and enforces the stated
tolerance and runtime budget.  The final test replays the full
figure-scale experiment through the CLI and is by far the slowest item
(several minutes of quadratic-oracle work); everything else finishes in
seconds.
"""

import csv
import time

import numpy as np

from sincfft import bounds
from sincfft.cli import main as cli_main
from sincfft.direct import (cc_weights_direct, nndft_direct,
                            sinc_transform_direct)
from sincfft.fast_sinc import SincMode, fast_sinc_transform, sinc_plan
from sincfft.nfft import nfft_adjoint, nfft_plan, nfft_trafo
from sincfft.nnfft import nnfft_plan, nnfft_trafo
from sincfft.sinc_approx import cc_quadrature


def _report(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema=1"
    return list(csv.DictReader(lines[1:]))


def test_c01_weight_normalization():
    tic = time.perf_counter()
    worst_dev, min_w = 0.0, np.inf
    n = 2
    while n <= 4096:
        quad = cc_quadrature(n)
        worst_dev = max(worst_dev, abs(np.sum(quad.weights) - 1.0))
        min_w = min(min_w, np.min(quad.weights))
        n *= 2
    dt = time.perf_counter() - tic
    ok = worst_dev <= 1e-13 and min_w > 0.0 and dt < 1.0
    _report(ok, "criterion-01 weight normalization",
            f"max |sum-1| = {worst_dev:.2e}, min weight = {min_w:.2e}, {dt:.2f}s")


def test_c02_fast_weights_match_direct():
    tic = time.perf_counter()
    # powers of two and others, up to the paper's n = 6N at N = 1024
    worst = max(np.max(np.abs(cc_quadrature(n).weights - cc_weights_direct(n)))
                for n in (4, 16, 256, 4096, 6, 100, 1000, 3001, 6144))
    dt = time.perf_counter() - tic
    ok = worst <= 1e-13 and dt < 2.0
    _report(ok, "criterion-02 fast vs direct weights",
            f"max entrywise gap = {worst:.2e}, {dt:.2f}s")


def test_c03_hand_derived_n2_weights():
    quad = cc_quadrature(2)
    gap = np.max(np.abs(quad.weights - np.array([1 / 6, 2 / 3, 1 / 6])))
    _report(gap <= 1e-15, "criterion-03 n=2 weights", f"max gap = {gap:.2e}")


def test_c04_surrogate_dominated_by_bound():
    tic = time.perf_counter()
    R = 10 ** 4
    x = 2.0 * (np.arange(R) - R // 2) / R
    worst_ratio, plateau = 0.0, None
    ok = True
    for N in (8, 16, 32, 64, 128):
        exact = np.sinc(N * x)
        for nu in (4, 5, 6):
            quad = cc_quadrature(nu * N)
            approx = nndft_direct(quad.weights, quad.points, x, N / 2)
            measured = np.max(np.abs(approx - exact))
            allowed = max(bounds.bound_cc_sinc(N, float(nu)), 1e-12)
            ok = ok and measured <= allowed
            worst_ratio = max(worst_ratio, measured / allowed)
            if (N, nu) == (64, 5):
                plateau = measured
                ok = ok and measured <= 1e-12
    dt = time.perf_counter() - tic
    ok = ok and dt < 10.0
    _report(ok, "criterion-04 surrogate error vs bound",
            f"worst measured/allowed = {worst_ratio:.3f}, "
            f"plateau(64,5) = {plateau:.2e}, {dt:.1f}s")


def test_c05_two_stage_error_vs_bound_desk(tmp_path):
    tic = time.perf_counter()
    out1 = tmp_path / "desk.csv"
    rc1 = cli_main(["nnfft-error", "--N", "128", "--M1", "64", "--M2", "48",
                    "--sigma1", "2.0", "--m1", "2", "3", "4", "5", "6",
                    "--reps", "20", "--seed", "0", "--out", str(out1)])
    out2 = tmp_path / "desk_split.csv"
    rc2 = cli_main(["nnfft-error", "--N", "128", "--M1", "64", "--M2", "48",
                    "--sigma1", "2.0", "--m1", "3", "--m2", "6",
                    "--reps", "20", "--seed", "0", "--out", str(out2)])
    rows = _read_rows(out1) + _read_rows(out2)
    dt = time.perf_counter() - tic
    ok = rc1 == 0 and rc2 == 0 and len(rows) == 6
    worst = 0.0
    for row in rows:
        ratio = float(row["measured"]) / float(row["bound"])
        worst = max(worst, ratio)
        ok = ok and ratio <= 1.0
    ok = ok and dt < 30.0
    _report(ok, "criterion-05 two-stage error vs bound",
            f"6 tuples, worst measured/bound = {worst:.2e}, {dt:.1f}s")


def test_c06_two_stage_convergence_floor():
    tic = time.perf_counter()
    rng = np.random.default_rng(2026)
    N, M1, M2 = 128, 64, 48
    bound = bounds.bound_nnfft_sinh(N, 2.0, 2.0, 6, 6)
    a = 1.0 + 2.0 * 6 / (2.0 * N)
    worst = 0.0
    for _ in range(20):
        v = rng.uniform(-0.5 / a, 0.5 / a, M1)
        x = rng.uniform(-0.5, 0.5, M2)
        f = rng.uniform(-1, 1, M1) + 1j * rng.uniform(-1, 1, M1)
        plan = nnfft_plan(N, v, x, m1=6, m2=6)
        err = np.max(np.abs(nnfft_trafo(plan, f) - nndft_direct(f, v, x, N)))
        worst = max(worst, err / np.sum(np.abs(f)))
    dt = time.perf_counter() - tic
    ok = worst <= 1e-9 and worst <= bound and dt < 5.0
    _report(ok, "criterion-06 convergence floor",
            f"worst relative error = {worst:.2e} (bound {bound:.2e}), {dt:.1f}s")


def test_c07_fast_sinc_vs_direct_oracle():
    tic = time.perf_counter()
    rng = np.random.default_rng(404)
    ok, worst_ratio = True, 0.0
    for N in (64, 128):
        L1 = N // 2
        b = (np.arange(N) - N // 2) / N
        for _ in range(10):
            a = rng.uniform(-0.5, 0.5, L1)
            c = rng.uniform(-1, 1, L1) + 1j * rng.uniform(-1, 1, L1)
            plan = sinc_plan(N, a, b, n=4 * N)
            err = np.max(np.abs(fast_sinc_transform(plan, c)
                                - sinc_transform_direct(c, a, b, N)))
            rel = err / np.sum(np.abs(c))
            cert = plan.error_bound()
            ok = ok and rel <= cert["full"]
            worst_ratio = max(worst_ratio, rel / cert["full"])
            if cert["simplified_valid"]:
                ok = ok and rel <= cert["simplified"]
    dt = time.perf_counter() - tic
    ok = ok and dt < 20.0
    _report(ok, "criterion-07 fast sinc vs oracle",
            f"worst measured/bound = {worst_ratio:.2e}, {dt:.1f}s")


def test_c08_special_case_equivalence():
    tic = time.perf_counter()
    rng = np.random.default_rng(808)
    N, L1 = 128, 64
    a = rng.uniform(-0.5, 0.5, L1)
    b = (np.arange(N) - N // 2) / N
    c = rng.uniform(-1, 1, L1) + 1j * rng.uniform(-1, 1, L1)
    fast = sinc_plan(N, a, b, n=4 * N, m1=10, m2=10)
    # the targets in reverse order are no grid: the GENERAL route
    general = sinc_plan(N, a, b[::-1], n=4 * N, m1=10, m2=10)
    assert fast.mode is SincMode.EQUISPACED_TARGETS
    assert general.mode is SincMode.GENERAL
    gap = (np.max(np.abs(fast_sinc_transform(fast, c)
                         - fast_sinc_transform(general, c)[::-1]))
           / np.sum(np.abs(c)))
    dt = time.perf_counter() - tic
    ok = gap <= 1e-11 and dt < 5.0
    _report(ok, "criterion-08 special-case equivalence",
            f"path difference = {gap:.2e}, {dt:.1f}s")


def test_c09_adjoint_identity():
    tic = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(50):
        N = 2 * int(rng.integers(4, 33))
        M = int(rng.integers(5, 80))
        x = rng.uniform(-0.5, 0.5, M)
        c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        y = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        plan = nfft_plan(N, x, sigma=2.0, m=4)
        lhs = np.vdot(y, nfft_trafo(plan, c))
        rhs = np.vdot(nfft_adjoint(plan, y), c)
        worst = max(worst, abs(lhs - rhs)
                    / (np.linalg.norm(c) * np.linalg.norm(y)))
    dt = time.perf_counter() - tic
    ok = worst <= 1e-12 and dt < 2.0
    _report(ok, "criterion-09 adjoint identity",
            f"worst normalized defect = {worst:.2e}, {dt:.1f}s")


def test_c10_fast_path_beats_direct():
    tic = time.perf_counter()
    rng = np.random.default_rng(1010)
    N, M1, M2 = 4096, 8192, 8192
    geo_a = 1.0 + 2.0 * 4 / (2.0 * N)
    v = rng.uniform(-0.5 / geo_a, 0.5 / geo_a, M1)
    x = rng.uniform(-0.5, 0.5, M2)
    f = rng.uniform(-1, 1, M1) + 1j * rng.uniform(-1, 1, M1)
    plan = nnfft_plan(N, v, x, m1=4, m2=4)
    nnfft_trafo(plan, f)  # warm caches before timing
    t0 = time.perf_counter()
    fast = nnfft_trafo(plan, f)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = nndft_direct(f, v, x, N)
    t_direct = time.perf_counter() - t0
    agree = np.max(np.abs(fast - ref)) / np.sum(np.abs(f))
    dt = time.perf_counter() - tic
    ok = t_fast < t_direct / 20.0 and agree < 1e-5 and dt < 60.0
    _report(ok, "criterion-10 scaling",
            f"fast {t_fast * 1e3:.1f}ms vs direct {t_direct:.2f}s "
            f"(ratio 1/{t_direct / t_fast:.0f}), agreement {agree:.1e}, {dt:.1f}s")


def test_c11_figure_scale_reproduction(tmp_path):
    out = tmp_path / "paper.csv"
    rc = cli_main(["nnfft-error", "--paper", "--seed", "1", "--out", str(out)])
    rows = _read_rows(out)
    ok = rc == 0 and len(rows) == 21
    worst = 0.0
    by_sigma = {}
    for row in rows:
        measured, bound = float(row["measured"]), float(row["bound"])
        worst = max(worst, measured / bound)
        ok = ok and measured < bound
        by_sigma.setdefault(row["sigma1"], []).append((int(row["m1"]), measured))
    # within each sigma the measured maxima trend downward in m
    # (up to a 2x repetition-noise factor)
    for vals in by_sigma.values():
        vals.sort()
        for (_, lo), (_, hi) in zip(vals, vals[1:]):
            ok = ok and hi <= 2.0 * lo
    _report(ok, "criterion-11 figure-scale reproduction",
            f"21 tuples, worst measured/bound = {worst:.2e}")
