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

Each subcommand is a generator of rows: one dict per parameter tuple, in
``itertools.product`` order over the swept options, keyed by CSV column.
One table, ``_COMMANDS``, gives each its generator, default ``--out`` and
the desk and ``--paper`` values of unset options; one loop adds ``time_s``
under ``--time`` and prints each row; one writer takes the header from the
first row's keys.  A bound cell is empty where no closed-form bound holds
(a window other than sinh, or ``m2 < m1``).

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
import itertools
import sys
import time

import numpy as np

from . import bounds as _bounds
from .direct import nndft_direct, sinc_transform_direct
from .errors import ParameterError, PositivityError
from .fast_sinc import fast_sinc_transform, sinc_plan
from .nnfft import NnfftGeometry, nnfft_plan, nnfft_trafo
from .sinc_approx import cc_quadrature, sinc_expsum_max_error
from .windows import window_kinds


def _stream(seed, tuple_index, rep):
    key = [seed & 0xFFFFFFFFFFFFFFFF, (tuple_index << 32) | rep]
    return np.random.Generator(np.random.Philox(key=key))


def _certified(window1, window2, bound, *params):
    """``bound(*params)``, or None (an empty cell) for a window other than
    sinh or parameters outside the bound's range, such as ``m2 < m1``."""
    if window1 != "sinh" or window2 != "sinh":
        return None
    try:
        return bound(*params)
    except ParameterError:
        return None


def _nnfft_error_rows(args):
    w1, w2 = args.window1, args.window2
    for t, (sigma1, m1) in enumerate(itertools.product(args.sigma1, args.m1)):
        N, M1, M2 = args.N, args.M1, args.M2
        m2 = m1 if args.m2 is None else args.m2
        sigma2 = sigma1 if args.sigma2 is None else args.sigma2
        # rejects N = 0 or sigma1 <= 1 before vmax divides by them
        NnfftGeometry.from_parameters(N, M1, M2, sigma1, sigma2, m1, m2)
        vmax = 0.5 / (1.0 + 2.0 * m1 / (sigma1 * N))
        worst = 0.0
        for rep in range(args.reps):
            rng = _stream(args.seed, t, rep)
            x = rng.uniform(-0.5, 0.5, M2)
            v = rng.uniform(-vmax, vmax, M1)
            f = rng.uniform(-1.0, 1.0, M1) + 1j * rng.uniform(-1.0, 1.0, M1)
            plan = nnfft_plan(N, v, x, sigma1=sigma1, sigma2=sigma2,
                              m1=m1, m2=m2, window1=w1, window2=w2)
            err = np.max(np.abs(nndft_direct(f, v, x, N) - nnfft_trafo(plan, f)))
            worst = max(worst, err / np.sum(np.abs(f)))
        yield dict(N=N, M1=M1, M2=M2, window1=w1, window2=w2, m1=m1, m2=m2,
                   sigma1=sigma1, sigma2=sigma2, reps=args.reps, seed=args.seed,
                   measured=worst,
                   bound=_certified(w1, w2, _bounds.bound_nnfft_sinh,
                                    N, sigma1, sigma2, m1, m2))


def _sinc_approx_rows(args):
    for N, nu in itertools.product(args.N, args.nu):
        yield dict(N=N, nu=nu, n=nu * N, R=args.R,
                   measured=sinc_expsum_max_error(cc_quadrature(nu * N), N, args.R),
                   bound=_bounds.bound_cc_sinc(N, float(nu)))


def _sinc_transform_rows(args):
    w1, w2 = args.window1, args.window2
    for t, (N, nu) in enumerate(itertools.product(args.N, args.nu)):
        L1 = N // 2 if args.L1 is None else args.L1
        b = (np.arange(N) - N // 2) / N
        worst = 0.0
        for rep in range(args.reps):
            rng = _stream(args.seed, t, rep)
            a = rng.uniform(-0.5, 0.5, L1)
            c = rng.uniform(-1.0, 1.0, L1) + 1j * rng.uniform(-1.0, 1.0, L1)
            plan = sinc_plan(N, a, b, n=nu * N, m1=args.m1, m2=args.m2,
                             sigma1=args.sigma1, sigma2=args.sigma2,
                             window1=w1, window2=w2)
            fast = fast_sinc_transform(plan, c)
            if N <= args.direct_cap:
                exact = sinc_transform_direct(c, a, b, N)
                worst = max(worst, np.max(np.abs(exact - fast)) / np.sum(np.abs(c)))
        cert = _certified(w1, w2, plan.error_bound) or {}
        yield dict(N=N, L1=L1, L2=N, nu=nu, n=nu * N, m1=args.m1, m2=args.m2,
                   sigma1=args.sigma1, sigma2=args.sigma2, window1=w1, window2=w2,
                   reps=args.reps, seed=args.seed,
                   measured=worst if N <= args.direct_cap else None,
                   epsilon=cert.get("epsilon"), bound_full=cert.get("full"),
                   bound_simplified=cert.get("simplified"),
                   assump_ok=cert.get("simplified_valid"))


def _bounds_rows(args):
    # the fast sinc columns take the first --nu
    for N, sigma1, m1 in itertools.product(args.N, args.sigma1, args.m1):
        m2 = m1 if args.m2 is None else args.m2
        sigma2 = sigma1 if args.sigma2 is None else args.sigma2
        rep = _bounds.bound_report(N, m1, m2, sigma1, sigma2, float(args.nu[0]))
        yield dict(N=N, m1=m1, m2=m2, sigma1=sigma1, sigma2=sigma2, E1=rep.e1,
                   E2=rep.e2, hat_phi1_half=rep.hat_phi1_half, a=rep.a,
                   nnfft_bound=rep.nnfft_bound,
                   **{f"cc_bound_nu{nu}": _bounds.bound_cc_sinc(N, float(nu))
                      for nu in args.nu},
                   fast_sinc_full=rep.full, fast_sinc_simplified=rep.simplified,
                   assump_ok=rep.simplified_valid)


#: subcommand -> (row generator, default --out,
#:                {option: (desk default, --paper default)})
_COMMANDS = {
    "nnfft-error": (_nnfft_error_rows, "nnfft_error.csv", {
        "N": (128, 1200), "M1": (64, 2400), "M2": (48, 1600),
        "m1": (list(range(2, 7)), list(range(2, 9))),
        "sigma1": ([1.25, 1.5, 2.0],) * 2, "reps": (20, 100)}),
    "sinc-approx": (_sinc_approx_rows, "sinc_approx.csv", {
        "N": ([8, 16, 32, 64, 128],) * 2,
        "nu": ([4, 5, 6], list(range(1, 11))), "R": (10000, 300000)}),
    "sinc-transform": (_sinc_transform_rows, "sinc_transform.csv", {
        "N": ([64, 128], [2 ** t for t in range(5, 14)]),
        "nu": ([4], [4, 6, 8]), "reps": (10, 100)}),
    "bounds": (_bounds_rows, "bounds.csv", {
        "N": ([128],) * 2, "m1": (list(range(2, 9)),) * 2,
        "sigma1": ([1.25, 1.5, 2.0],) * 2, "nu": ([4, 5, 6],) * 2}),
}


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _collect(args, rows):
    """The rows, each timed under ``--time`` and reported on one line."""
    out, tic = [], time.perf_counter()
    for row in rows:
        if getattr(args, "time", False):
            row["time_s"] = time.perf_counter() - tic
        print(f"{args.command}: " + " ".join(
            f"{key}={val:.4g}" if isinstance(val, float) else f"{key}={_fmt(val) or 'n/a'}"
            for key, val in row.items()))
        out.append(row)
        tic = time.perf_counter()
    return out


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# schema=1\n")
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row.values()) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sincfft",
        description="Accuracy experiments and bound tables for the fast "
                    "sinc and nonequispaced Fourier transforms.")
    sub = parser.add_subparsers(dest="command", required=True)
    ne, sa, st, bd = _COMMANDS
    subs = {name: sub.add_parser(name, help=text) for name, text in zip(_COMMANDS, (
        "measured error of the two-stage transform vs. bound",
        "sinc surrogate error on a fine grid vs. bound",
        "fast sinc transform error vs. full/simplified bounds",
        "bound tables only, no measurements"))}

    def add(names, flag, **kw):
        for name in names:
            subs[name].add_argument(flag, **kw)

    add([ne], "--N", type=int, help="bandwidth")
    add([sa, st, bd], "--N", type=int, nargs="+", help="bandwidths to sweep")
    add([ne], "--M1", type=int, help="number of frequencies")
    add([ne], "--M2", type=int, help="number of spatial nodes")
    add([sa, st, bd], "--nu", type=int, nargs="+",
        help="oversampling factors n = nu*N to sweep")
    add([sa], "--R", type=int, help="evaluation grid size")
    add([st], "--L1", type=int, help="number of sources (default N/2)")
    add([ne, bd], "--m1", type=int, nargs="+", help="first-stage cut-offs to sweep")
    add([ne, bd], "--m2", type=int, help="second-stage cut-off (default: equal to m1)")
    add([ne, bd], "--sigma1", type=float, nargs="+",
        help="first-stage oversampling factors to sweep")
    add([ne, bd], "--sigma2", type=float,
        help="second-stage oversampling (default: equal to sigma1)")
    for flag, kind, default in (("--m1", int, 6), ("--m2", int, 6),
                                ("--sigma1", float, 2.0), ("--sigma2", float, 2.0)):
        add([st], flag, type=kind, default=default)
    for stage in ("1", "2"):
        add([ne, st], f"--window{stage}", default="sinh", choices=window_kinds(),
            help=f"window shape of gridding stage {stage}")
    add([st], "--direct-cap", type=int, default=2048, dest="direct_cap",
        help="largest N for which the quadratic oracle runs")
    add([ne, st], "--reps", type=int, help="repetitions per tuple, at least 1")
    add([ne, st], "--seed", type=int, default=0)
    for name in (ne, sa, st):
        preset = ", ".join(f"{opt}={big}" for opt, (desk, big)
                           in _COMMANDS[name][2].items() if desk != big)
        add([name], "--paper", action="store_true",
            help=f"use the large preset ({preset})")
    for name, (_, out, _) in _COMMANDS.items():
        add([name], "--out", default=out)
    add([ne, sa, st], "--time", action="store_true",
        help="append a wall-clock column (breaks byte determinism)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    rows_of, _, presets = _COMMANDS[args.command]
    for option, (desk, big) in presets.items():
        if getattr(args, option) is None:
            setattr(args, option, big if getattr(args, "paper", False) else desk)
    try:
        if getattr(args, "reps", 1) < 1:
            raise ParameterError(f"--reps must be at least 1, got {args.reps}")
        _write_csv(args.out, _collect(args, rows_of(args)))
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PositivityError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
