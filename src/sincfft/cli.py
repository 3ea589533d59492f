"""Command-line experiment drivers.

Four subcommands reproduce the package's accuracy experiments and bound
tables as deterministic CSV files:

``nnfft-error``
    Measured worst-case error of the two-stage nonequispaced transform
    over random draws, next to its closed-form bound.
``sinc-approx``
    Uniform error of the Clenshaw-Curtis sinc surrogate on a fine grid,
    next to its bound.
``sinc-transform``
    End-to-end error of the fast sinc transform against the exact direct
    evaluation, next to the full and simplified bounds.
``bounds``
    Bound tables alone (no measurements), one row per parameter tuple.

Randomness comes from counter-based Philox streams: the draw for
repetition ``r`` of parameter tuple ``t`` uses
``np.random.Philox(key=[seed, (t << 32) | r])``, so every (tuple,
repetition) pair has its own stream and results are reproducible for a
given seed and sweep order regardless of execution order.  Output files
are byte-identical across runs unless ``--time`` adds wall-clock columns.
Exit codes: 0 success, 2 invalid parameters or usage, 3 internal numeric
failure.
"""

import argparse
import sys
import time

import numpy as np

from . import bounds as _bounds
from .direct import nndft_direct, sinc_transform_direct
from .errors import ParameterError, PositivityError
from .fast_sinc import fast_sinc_transform, sinc_plan
from .nnfft import nnfft_plan, nnfft_trafo
from .sinc_approx import cc_quadrature, sinc_expsum_max_error
from .windows import window_kinds

_WINDOW_ALIASES = {"kb": "kaiser-bessel"}


def _window(name):
    return _WINDOW_ALIASES.get(name, name)


def _stream(seed, tuple_index, rep):
    key = [seed & 0xFFFFFFFFFFFFFFFF, (tuple_index << 32) | rep]
    return np.random.Generator(np.random.Philox(key=key))


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _timed(args, row, tic):
    # the wall-clock column of --time, when asked for
    return row + [time.perf_counter() - tic] if args.time else row


def _write_csv(args, header, rows):
    if getattr(args, "time", False):
        header = header + ["time_s"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("# schema=1\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _nnfft_bound_or_none(N, sigma1, sigma2, m1, m2, window1, window2):
    if window1 != "sinh" or window2 != "sinh":
        return None
    try:
        return _bounds.bound_nnfft_sinh(N, sigma1, sigma2, m1, m2)
    except ParameterError:
        return None


def run_nnfft_error(args):
    paper = args.paper
    N = args.N if args.N is not None else (1200 if paper else 128)
    M1 = args.M1 if args.M1 is not None else (2400 if paper else 64)
    M2 = args.M2 if args.M2 is not None else (1600 if paper else 48)
    reps = args.reps if args.reps is not None else (100 if paper else 20)
    m1_list = args.m1 if args.m1 else (list(range(2, 9)) if paper else list(range(2, 7)))
    sigma1_list = args.sigma1 if args.sigma1 else [1.25, 1.5, 2.0]
    window1 = _window(args.window1)
    window2 = _window(args.window2)

    header = ["N", "M1", "M2", "window1", "window2", "m1", "m2",
              "sigma1", "sigma2", "reps", "seed", "measured", "bound"]
    rows = []
    tuple_index = 0
    for sigma1 in sigma1_list:
        for m1 in m1_list:
            m2 = args.m2 if args.m2 is not None else m1
            sigma2 = args.sigma2 if args.sigma2 is not None else sigma1
            tic = time.perf_counter()
            vmax = 0.5 / (1.0 + 2.0 * m1 / (sigma1 * N))
            worst = 0.0
            for rep in range(reps):
                rng = _stream(args.seed, tuple_index, rep)
                x = rng.uniform(-0.5, 0.5, M2)
                v = rng.uniform(-vmax, vmax, M1)
                f = rng.uniform(-1.0, 1.0, M1) + 1j * rng.uniform(-1.0, 1.0, M1)
                plan = nnfft_plan(N, v, x, sigma1=sigma1, sigma2=sigma2,
                                  m1=m1, m2=m2, window1=window1, window2=window2)
                err = np.max(np.abs(nndft_direct(f, v, x, N) - nnfft_trafo(plan, f)))
                worst = max(worst, err / np.sum(np.abs(f)))
            bound = _nnfft_bound_or_none(N, sigma1, sigma2, m1, m2, window1, window2)
            rows.append(_timed(args, [N, M1, M2, window1, window2, m1, m2, sigma1,
                                      sigma2, reps, args.seed, worst, bound], tic))
            print(f"nnfft-error: sigma1={sigma1:g} m1={m1} m2={m2} "
                  f"measured={worst:.3e} bound="
                  + (f"{bound:.3e}" if bound is not None else "n/a"))
            tuple_index += 1
    return _write_csv(args, header, rows)


def run_sinc_approx(args):
    paper = args.paper
    N_list = args.N if args.N else [8, 16, 32, 64, 128]
    nu_list = args.nu if args.nu else (list(range(1, 11)) if paper else [4, 5, 6])
    R = args.R if args.R is not None else (300000 if paper else 10000)

    header = ["N", "nu", "n", "R", "measured", "bound"]
    rows = []
    for N in N_list:
        for nu in nu_list:
            tic = time.perf_counter()
            n = nu * N
            quad = cc_quadrature(n)
            measured = sinc_expsum_max_error(quad, N, R)
            bound = _bounds.bound_cc_sinc(N, float(nu))
            rows.append(_timed(args, [N, nu, n, R, measured, bound], tic))
            print(f"sinc-approx: N={N} nu={nu} measured={measured:.3e} bound={bound:.3e}")
    return _write_csv(args, header, rows)


def run_sinc_transform(args):
    paper = args.paper
    N_list = args.N if args.N else ([2 ** t for t in range(5, 14)] if paper else [64, 128])
    nu_list = args.nu if args.nu else ([4, 6, 8] if paper else [4])
    reps = args.reps if args.reps is not None else (100 if paper else 10)
    window1 = _window(args.window1)
    window2 = _window(args.window2)

    header = ["N", "L1", "L2", "nu", "n", "m1", "m2", "sigma1", "sigma2",
              "window1", "window2", "reps", "seed", "measured", "epsilon",
              "bound_full", "bound_simplified", "assump_ok"]
    rows = []
    tuple_index = 0
    for N in N_list:
        L1 = args.L1 if args.L1 is not None else N // 2
        b = (np.arange(N) - N // 2) / N
        for nu in nu_list:
            tic = time.perf_counter()
            n = nu * N
            worst = None
            plan = None
            for rep in range(reps):
                rng = _stream(args.seed, tuple_index, rep)
                a = rng.uniform(-0.5, 0.5, L1)
                c = rng.uniform(-1.0, 1.0, L1) + 1j * rng.uniform(-1.0, 1.0, L1)
                plan = sinc_plan(N, a, b, n=n, m1=args.m1, m2=args.m2,
                                 sigma1=args.sigma1, sigma2=args.sigma2,
                                 window1=window1, window2=window2)
                fast = fast_sinc_transform(plan, c)
                if N <= args.direct_cap:
                    exact = sinc_transform_direct(c, a, b, N)
                    err = np.max(np.abs(exact - fast)) / np.sum(np.abs(c))
                    worst = err if worst is None else max(worst, err)
            if window1 == "sinh" and window2 == "sinh":
                rep_info = plan.error_bound()
                eps, full = rep_info["epsilon"], rep_info["full"]
                simp, ok = rep_info["simplified"], rep_info["simplified_valid"]
            else:
                eps = full = simp = ok = None
            rows.append(_timed(args, [N, L1, N, nu, n, args.m1, args.m2,
                                      args.sigma1, args.sigma2, window1, window2,
                                      reps, args.seed, worst, eps, full, simp, ok],
                               tic))
            msg = f"{worst:.3e}" if worst is not None else "n/a (direct oracle capped)"
            print(f"sinc-transform: N={N} nu={nu} measured={msg} bound_full="
                  + (f"{full:.3e}" if full is not None else "n/a"))
            tuple_index += 1
    return _write_csv(args, header, rows)


def run_bounds(args):
    N_list = args.N if args.N else [128]
    m1_list = args.m1 if args.m1 else list(range(2, 9))
    sigma1_list = args.sigma1 if args.sigma1 else [1.25, 1.5, 2.0]
    nu_list = args.nu if args.nu else [4, 5, 6]

    header = (["N", "m1", "m2", "sigma1", "sigma2", "E1", "E2",
               "hat_phi1_half", "a", "nnfft_bound"]
              + [f"cc_bound_nu{nu}" for nu in nu_list]
              + ["fast_sinc_full", "fast_sinc_simplified", "assump_ok"])
    rows = []
    for N in N_list:
        for sigma1 in sigma1_list:
            for m1 in m1_list:
                m2 = args.m2 if args.m2 is not None else m1
                sigma2 = args.sigma2 if args.sigma2 is not None else sigma1
                report = _bounds.bound_report(N, m1, m2, sigma1, sigma2,
                                              float(nu_list[0]))
                cc_cols = [_bounds.bound_cc_sinc(N, float(nu)) for nu in nu_list]
                rows.append([N, m1, m2, sigma1, sigma2, report.e1, report.e2,
                             report.hat_phi1_half, report.a, report.nnfft_bound]
                            + cc_cols
                            + [report.fast_sinc_bound_full,
                               report.fast_sinc_bound_simplified,
                               report.simplified_valid])
    return _write_csv(args, header, rows)


def _add_window_args(p):
    kinds = list(window_kinds()) + list(_WINDOW_ALIASES)
    p.add_argument("--window1", default="sinh", choices=kinds,
                   help="window shape of the first gridding stage")
    p.add_argument("--window2", default="sinh", choices=kinds,
                   help="window shape of the second gridding stage")


def _add_run_args(p, out, preset, draws=True):
    if draws:
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paper", action="store_true",
                   help=f"use the large preset ({preset})")
    p.add_argument("--out", default=out)
    p.add_argument("--time", action="store_true",
                   help="append a wall-clock column (breaks byte determinism)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sincfft",
        description="Accuracy experiments and bound tables for the fast "
                    "sinc and nonequispaced Fourier transforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nnfft-error",
                       help="measured error of the two-stage transform vs. bound")
    p.add_argument("--N", type=int, default=None, help="bandwidth")
    p.add_argument("--M1", type=int, default=None, help="number of frequencies")
    p.add_argument("--M2", type=int, default=None, help="number of spatial nodes")
    p.add_argument("--m1", type=int, nargs="+", default=None,
                   help="first-stage cut-offs to sweep")
    p.add_argument("--m2", type=int, default=None,
                   help="second-stage cut-off (default: equal to m1)")
    p.add_argument("--sigma1", type=float, nargs="+", default=None,
                   help="first-stage oversampling factors to sweep")
    p.add_argument("--sigma2", type=float, default=None,
                   help="second-stage oversampling (default: equal to sigma1)")
    _add_window_args(p)
    _add_run_args(p, "nnfft_error.csv", "N=1200, M1=2400, M2=1600, m1=2..8, "
                                        "100 repetitions")
    p.set_defaults(func=run_nnfft_error)

    p = sub.add_parser("sinc-approx",
                       help="sinc surrogate error on a fine grid vs. bound")
    p.add_argument("--N", type=int, nargs="+", default=None)
    p.add_argument("--nu", type=int, nargs="+", default=None,
                   help="oversampling factors n = nu*N")
    p.add_argument("--R", type=int, default=None, help="evaluation grid size")
    _add_run_args(p, "sinc_approx.csv", "nu=1..10, R=300000", draws=False)
    p.set_defaults(func=run_sinc_approx)

    p = sub.add_parser("sinc-transform",
                       help="fast sinc transform error vs. full/simplified bounds")
    p.add_argument("--N", type=int, nargs="+", default=None)
    p.add_argument("--nu", type=int, nargs="+", default=None)
    p.add_argument("--L1", type=int, default=None,
                   help="number of sources (default N/2)")
    p.add_argument("--m1", type=int, default=6)
    p.add_argument("--m2", type=int, default=6)
    p.add_argument("--sigma1", type=float, default=2.0)
    p.add_argument("--sigma2", type=float, default=2.0)
    _add_window_args(p)
    p.add_argument("--direct-cap", type=int, default=2048, dest="direct_cap",
                   help="largest N for which the quadratic oracle runs")
    _add_run_args(p, "sinc_transform.csv", "N=2^5..2^13, nu in {4,6,8}, "
                                           "100 repetitions")
    p.set_defaults(func=run_sinc_transform)

    p = sub.add_parser("bounds", help="bound tables only, no measurements")
    p.add_argument("--N", type=int, nargs="+", default=None)
    p.add_argument("--m1", type=int, nargs="+", default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--sigma1", type=float, nargs="+", default=None)
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--nu", type=int, nargs="+", default=None)
    p.add_argument("--out", default="bounds.csv")
    p.set_defaults(func=run_bounds)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PositivityError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
