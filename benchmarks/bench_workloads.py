"""The benchmark's four workloads.

Each workload makes its inputs from the seed alone, calls the library
through module attributes (``nnfft.nnfft_trafo``, not a name imported
once), so the tracer's re-bound wrappers see every call, and checks every
result against the exact oracle in :mod:`sincfft.direct`.

A workload provides

* ``setups``, ``min_ops``: timed plans before the operations, and the
  fewest operations a run makes;
* ``setup_inputs()`` / ``op_inputs(i)``: the arrays of the one shared
  plan and of operation ``i``.  ``op_inputs`` returns ``(plan_inputs,
  rhs_list)``; ``plan_inputs`` is ``None`` unless every operation builds
  its own plan (``setups == 0``, no ``setup_inputs`` then);
* ``plan(plan_inputs)``: the timed set-up;
* ``apply(plan, rhs)``: one timed transform;
* ``limit(plan)``: the certified bound or stated tolerance, untimed;
* ``check(plan_inputs, rhs, out, limit)``: the timed oracle call on the
  generated inputs (never on the plan's copies of them), returning a list
  of ``(name, value, limit)``; a value above its limit fails the
  operation;
* ``params(plan)``: the parameters the plan actually got.

Sizes are constructor arguments so the smoke test can shrink them; every
other setting is a class constant.
"""

import dataclasses

import numpy as np

from sincfft import bounds, direct, fast_sinc, nfft, nnfft


def _rng(seed, *key):
    return np.random.default_rng([int(seed), *key])


def _coeffs(rng, size):
    return rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)


def _rel_err(fast, exact, coeffs):
    return float(np.max(np.abs(fast - exact)) / np.sum(np.abs(coeffs)))


# integer keys of the random streams, so no two draws share a stream
_SETUP, _OP = 0, 1


class NnfftSinh:
    name = "nnfft-sinh"
    setups = 8
    min_ops = 100
    m, sigma, targets = 8, 2.0, 8

    def __init__(self, seed, N=65536, M=131072):
        self.seed, self.N, self.M = seed, N, M

    def setup_inputs(self):
        rng = _rng(self.seed, _SETUP)
        return {"v": rng.uniform(-0.5, 0.5, self.M), "x": rng.uniform(-0.5, 0.5, self.M)}

    def plan(self, inp):
        n_star, v_star = nnfft.rescale_frequencies(self.N, inp["v"], self.sigma, self.m)
        return nnfft.nnfft_plan(n_star, v_star, inp["x"], sigma1=self.sigma,
                                sigma2=self.sigma, m1=self.m, m2=self.m)

    def op_inputs(self, i):
        rng = _rng(self.seed, _OP, i)
        return None, [{"f": _coeffs(rng, self.M),
                       "idx": rng.integers(0, self.M, self.targets)}]

    def apply(self, plan, rhs):
        return nnfft.nnfft_trafo(plan, rhs["f"])

    def limit(self, plan):
        g = plan.geometry
        return bounds.bound_nnfft_sinh(g.N, g.sigma1, g.sigma2, g.m1, g.m2)

    def check(self, inp, rhs, out, limit):
        # unscaled (N, v): the oracle also checks rescale_frequencies.
        # One oracle call per target keeps its temporaries at M1 entries.
        idx = rhs["idx"]
        exact = np.concatenate([direct.nndft_direct(rhs["f"], inp["v"], inp["x"][j:j + 1],
                                                    self.N) for j in idx])
        return [("err", _rel_err(out[idx], exact, rhs["f"]), limit)]

    def params(self, plan):
        return {**dataclasses.asdict(plan.geometry),
                "N": self.N, "N_star": plan.geometry.N,
                "window1": plan.window1.kind, "window2": plan.window2.kind}


class _SincWorkload:
    """Shared parts of the two fast-sinc workloads."""

    def apply(self, plan, rhs):
        return fast_sinc.fast_sinc_transform(plan, rhs["c"])

    def limit(self, plan):
        return plan.error_bound()["full"]

    def check(self, inp, rhs, out, limit):
        idx = rhs.get("idx")
        b = inp["b"] if idx is None else inp["b"][idx]
        exact = direct.sinc_transform_direct(rhs["c"], inp["a"], b, self.N)
        fast = out if idx is None else out[idx]
        return [("err", _rel_err(fast, exact, rhs["c"]), limit)]

    def params(self, plan):
        return {"mode": plan.mode.value, "N": plan.N, "n": plan.n,
                "n_star": plan.n_star, "L1": plan.L1, "L2": plan.L2,
                "m1": plan.m1, "m2": plan.m2, "sigma1": plan.sigma1,
                "sigma2": plan.sigma2, "window1": plan.window1,
                "window2": plan.window2,
                "inner_geometry": dataclasses.asdict(plan.inner_geometry)}


class SincGeneral(_SincWorkload):
    name = "sinc-general"
    setups = 12
    min_ops = 100
    epsilon, targets = 1e-10, 16

    def __init__(self, seed, N=16384, L=32768):
        self.seed, self.N, self.L = seed, N, L

    def setup_inputs(self):
        rng = _rng(self.seed, _SETUP)
        return {"a": rng.uniform(-0.5, 0.5, self.L), "b": rng.uniform(-0.5, 0.5, self.L)}

    def plan(self, inp):
        return fast_sinc.sinc_plan(self.N, inp["a"], inp["b"], epsilon=self.epsilon)

    def op_inputs(self, i):
        rng = _rng(self.seed, _OP, i)
        return None, [{"c": _coeffs(rng, self.L),
                       "idx": rng.integers(0, self.L, self.targets)}]


class SincPaper(_SincWorkload):
    name = "sinc-paper"
    setups = 0
    min_ops = 25
    # 4 applies per plan, so a run has the 100 applies apply_p90_s needs
    nu, rhs_per_op = 6, 4

    def __init__(self, seed, N=1024, L1=512):
        self.seed, self.N, self.L1 = seed, N, L1
        self.grid = (np.arange(N) - N // 2) / N

    def plan(self, inp):
        return fast_sinc.sinc_plan(self.N, inp["a"], inp["b"], n=self.nu * self.N)

    def op_inputs(self, i):
        rng = _rng(self.seed, _OP, i)
        a = rng.uniform(-0.5, 0.5, self.L1)
        return ({"a": a, "b": self.grid},
                [{"c": _coeffs(rng, self.L1)} for _ in range(self.rhs_per_op)])


class NfftBspline:
    name = "nfft-bspline"
    setups = 6
    min_ops = 100
    m, sigma, targets = 8, 2.0, 8

    def __init__(self, seed, N=16384, M=32768):
        self.seed, self.N, self.M = seed, N, M

    def setup_inputs(self):
        return {"x": _rng(self.seed, _SETUP).uniform(-0.5, 0.5, self.M)}

    def plan(self, inp):
        return nfft.nfft_plan(self.N, inp["x"], sigma=self.sigma, m=self.m,
                              window="bspline")

    def op_inputs(self, i):
        rng = _rng(self.seed, _OP, i)
        return None, [{"c": _coeffs(rng, self.N), "y": _coeffs(rng, self.M),
                       "idx": rng.integers(0, self.M, self.targets),
                       "freq": rng.integers(0, self.N, self.targets)}]

    def apply(self, plan, rhs):
        return (nfft.nfft_trafo(plan, rhs["c"]), nfft.nfft_adjoint(plan, rhs["y"]))

    def limit(self, plan):
        # stated accuracy of the B-spline window: 4 (2 sigma - 1)^(-2m)
        return 4.0 * (2.0 * self.sigma - 1.0) ** (-2 * self.m)

    def check(self, inp, rhs, out, limit):
        trafo, adjoint = out
        x, c, y, idx, freq = inp["x"], rhs["c"], rhs["y"], rhs["idx"], rhs["freq"]
        exact_t = direct.ndft_direct(c, x[idx])
        k = (freq - self.N // 2).astype(float)
        exact_a = direct.nndft_direct(y, x, k, 1)
        # <trafo c, y> = <c, adjoint y>, to rounding accuracy
        left, right = np.vdot(y, trafo), np.vdot(adjoint, c)
        scale = np.linalg.norm(trafo) * np.linalg.norm(y)
        return [("err", _rel_err(trafo[idx], exact_t, c), limit),
                ("err", _rel_err(adjoint[freq], exact_a, y), limit),
                ("adjoint_identity", float(abs(left - right) / scale), 1e-12)]

    def params(self, plan):
        return {"N": plan.degree, "M": plan.node_count, "n_over": plan.n_over,
                "m": plan.window.m, "sigma": plan.window.sigma,
                "window": plan.window.kind}


WORKLOADS = {wl.name: wl for wl in (NnfftSinh, SincGeneral, SincPaper, NfftBspline)}

def computed_counts(plan):
    """Counts per apply computed from the plan, not measured.

    Walks the plan and the sub-plans it holds; every NNFFT sub-plan runs
    one transform per apply and every NFFT sub-plan one trafo or adjoint
    (two, a trafo and an adjoint, for the bare NFFT plan of
    ``nfft-bspline``).
    """
    out = {"nnfft.table_bytes": 0, "nnfft.stencil_madds": 0,
           "nfft.table_bytes": 0, "nfft.stencil_madds": 0, "fft_len": 0}
    seen = set()

    def walk(obj):
        if id(obj) in seen or not hasattr(obj, "__dict__"):
            return
        seen.add(id(obj))
        if isinstance(obj, nnfft.NnfftPlan):
            g = obj.geometry
            out["nnfft.table_bytes"] += _array_bytes(obj)
            out["nnfft.stencil_madds"] += 2 * g.m1 * g.M1 + 2 * g.m2 * g.M2
            out["fft_len"] += g.N2
            return
        if isinstance(obj, nfft.NfftPlan):
            out["nfft.table_bytes"] += _array_bytes(obj)
            out["nfft.stencil_madds"] += 2 * obj.window.m * obj.node_count
            out["fft_len"] += obj.n_over
            return
        for val in vars(obj).values():
            walk(val)

    walk(plan)
    if isinstance(plan, nfft.NfftPlan):
        for key in ("nfft.stencil_madds", "fft_len"):
            out[key] *= 2
    return out


def _array_bytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))
