"""Run one workload, check every result, and report the metrics.

``run_workload`` does, in order:

1. one untimed warm-up plan and apply, traced to see which weight path
   the plan takes, then ``setups`` timed plans on the workload's fixed
   inputs (none when every operation plans for itself);
2. operations until ``seconds`` have passed and at least ``min_ops`` are
   done.  Each operation draws fresh inputs from ``(seed, i)``, applies
   the transform (timed) and compares the result with the exact oracle
   (timed separately).  An operation fails if it raised or a check
   exceeded its limit;
3. without tracing, one untimed plan plus apply under ``tracemalloc``
   for the memory peak.

After every timed set-up and every apply with its check, a fixed NumPy
kernel, the host probe, is timed as well.  On a shared host the machine's
speed drifts by 20% and more between runs of the same code, and the probe
slows with it.  The end-to-end timings are therefore reported at the
probe's reference speed: each sample is multiplied by ``PROBE_REF_S``
over the mean time of the probes taken around it.  The unscaled timings
and the mean factors are printed and kept in the result file.

Metric names and units, and why each workload was chosen, are read from
``BENCHMARK.json``; this module only says how each metric is computed.

With tracing on, odd-numbered set-ups and operations run with the tracer
installed and even-numbered ones without; the per-layer figures come from
the traced half and the tracing overhead is the difference of the two
halves' medians.
"""

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import platform
import statistics
import sys
import time
import tracemalloc
import traceback

import numpy as np
import scipy
import scipy.fft
import sincfft

from bench_tracer import Tracer
from bench_workloads import WORKLOADS, computed_counts

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


def _self(tracer, sp):
    return sp.self_s


def _calls(tracer, sp):
    return 1


def _count(key):
    return lambda tracer, sp: sp.counts.get(key, 0)


def _weight_path(tracer, sp):
    # the DCT-I path shows as a dct1 call inside the quadrature
    inner = tracer.descendants(sp)
    return "dct" if any(s.name == "fft_core.dct1" for s in inner) else "cosine-sum"


def _n_by_path(path):
    return lambda tracer, sp: sp.counts["n"] if _weight_path(tracer, sp) == path else 0


# Probe time at the reference speed: about its mean within runs on a 2-vCPU
# Intel Xeon VM.  Any fixed value serves, as long as parent and change share it.
PROBE_REF_S = 4e-3


class HostProbe:
    """A fixed kernel made of the operations the transforms consist of: an
    FFT, a scatter-add, a gather and complex exponentials.  Its inputs do not
    depend on the seed, so its time changes only with the host's speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal(1 << 16) + 0j
        self.idx = rng.integers(0, 1 << 16, 1 << 18)
        self.w = rng.standard_normal(1 << 18)
        self.t = rng.standard_normal(1 << 12)
        self.samples = {"setup": [], "ops": []}
        self._kernel()  # first-call costs are not the host's speed

    def _kernel(self):
        np.fft.fft(self.a)
        np.bincount(self.idx, self.w, self.a.size)
        self.a[self.idx[:self.a.size]].sum()
        np.exp(1j * self.t)

    def __call__(self, phase):
        t0 = time.perf_counter()
        self._kernel()
        self.samples[phase].append(time.perf_counter() - t0)

    def factor(self, phase):
        """Mean scale from this run's host speed in ``phase`` to the reference."""
        return PROBE_REF_S / float(np.mean(self.samples[phase]))

    def scaled(self, samples, phase):
        """``samples``, taken in order through ``phase``, each at the reference
        speed: times PROBE_REF_S over the mean of the five probes around it.
        The host stays fast or slow for seconds, so nearby probes also follow
        changes within a run."""
        probes = np.asarray(self.samples[phase])
        if not samples or not probes.size:
            return []
        near = np.convolve(np.pad(probes, 2, mode="edge"), np.ones(5) / 5, mode="valid")
        # samples and probes pair up one to one, or one probe per several samples
        at = np.arange(len(samples)) * probes.size // len(samples)
        return list(np.asarray(samples) * PROBE_REF_S / near[at])


_DIRECT = ("direct.nndft", "direct.ndft", "direct.sinc")

# per-layer metrics from spans: name, phase it is averaged over, span
# names it sums, value of one span
TRACED = [
    ("fft_core.fft.s", "apply", ("fft_core.fft",), _self),
    ("fft_core.fft.calls", "apply", ("fft_core.fft",), _calls),
    ("fft_core.fft.len", "apply", ("fft_core.fft",), _count("len")),
    ("fft_core.dct1.s", "setup", ("fft_core.dct1",), _self),
    ("windows.phi_eval.s", "setup", ("windows.phi_eval",), _self),
    ("windows.phi_eval.pts", "setup", ("windows.phi_eval",), _count("pts")),
    ("windows.phi_hat_eval.s", "setup", ("windows.phi_hat_eval",), _self),
    ("windows.phi_hat_eval.pts", "setup", ("windows.phi_hat_eval",), _count("pts")),
    ("special.cardinal_bspline.s", "setup", ("special.cardinal_bspline",), _self),
    ("nnfft.plan.self_s", "setup", ("nnfft.plan", "nnfft.rescale_frequencies"), _self),
    ("nnfft.trafo.self_s", "apply", ("nnfft.trafo",), _self),
    ("nfft.plan.self_s", "setup", ("nfft.plan",), _self),
    ("nfft.trafo.self_s", "apply", ("nfft.trafo",), _self),
    ("nfft.adjoint.self_s", "apply", ("nfft.adjoint",), _self),
    ("sinc_approx.cc_quadrature.s", "setup", ("sinc_approx.cc_quadrature",), _self),
    ("sinc_approx.cc_quadrature.dct.n", "setup",
     ("sinc_approx.cc_quadrature",), _n_by_path("dct")),
    ("sinc_approx.cc_quadrature.cosine_sum.n", "setup",
     ("sinc_approx.cc_quadrature",), _n_by_path("cosine-sum")),
    ("fast_sinc.plan.self_s", "setup", ("fast_sinc.plan",), _self),
    ("fast_sinc.apply.self_s", "apply", ("fast_sinc.apply",), _self),
    ("direct.s", "verify", _DIRECT, _self),
    ("direct.terms", "verify", _DIRECT, _count("terms")),
]

# per-layer counts computed from the plan (labelled "computed" in the result file)
COMPUTED = ("nnfft.table_bytes", "nnfft.stencil_madds",
            "nfft.table_bytes", "nfft.stencil_madds")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    out = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scipy_fft_workers": scipy.fft.get_workers(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "platform": platform.platform(),
    }


def _hash_arrays(h, inputs):
    for key in sorted(inputs):
        h.update(key.encode())
        h.update(np.ascontiguousarray(inputs[key]).tobytes())


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, seconds, trace):
        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.samples = {(phase, traced): [] for phase in ("setup", "apply", "verify")
                        for traced in (False, True)}
        # (max err, max err / limit) of each of the first min_ops operations
        self.op_errors = []
        self.worst = (0.0, 0.0)  # the same maxima over every operation run
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.inputs_hash = hashlib.sha256()
        self.setup_in = workload.setup_inputs() if workload.setups else None
        self.plan = None
        self.probe = HostProbe()

    def _timed(self, phase, traced, fn, *args):
        span = self.tracer.span("bench." + phase) if traced else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - t0
        self.samples[phase, traced].append(dt)
        return out

    def _installed(self, traced):
        return self.tracer.installed() if traced else contextlib.nullcontext()

    def _first_inputs(self):
        plan_inputs, rhs_list = self.wl.op_inputs(0)
        return (self.setup_in if plan_inputs is None else plan_inputs), rhs_list[0]

    def warm_up(self):
        """One untimed plan and apply, so first-call costs are paid once per
        process; its calls are recorded to see which weight path the plan
        takes.  Returns the weight paths."""
        plan_inputs, rhs = self._first_inputs()
        probe = Tracer()
        with probe.installed():
            self.wl.apply(self.wl.plan(plan_inputs), rhs)
        return weight_paths(probe)

    def setup_phase(self):
        _hash_arrays(self.inputs_hash, self.setup_in)
        for r in range(self.wl.setups):
            traced = self.trace and r % 2 == 1
            with self._installed(traced):
                self.plan = self._timed("setup", traced, self.wl.plan, self.setup_in)
            self.probe("setup")

    def operation(self, i):
        traced = self.trace and i % 2 == 1
        plan_inputs, rhs_list = self.wl.op_inputs(i)
        if i < self.wl.min_ops:
            for inp in ([plan_inputs] if plan_inputs else []) + rhs_list:
                _hash_arrays(self.inputs_hash, inp)
        self.attempted += 1
        ok = True
        errs = []
        try:
            with self._installed(traced):
                if plan_inputs is None:
                    plan_inputs = self.setup_in
                else:
                    self.plan = self._timed("setup", traced, self.wl.plan, plan_inputs)
                limit = self.wl.limit(self.plan)
                for rhs in rhs_list:
                    out = self._timed("apply", traced, self.wl.apply, self.plan, rhs)
                    checks = self._timed("verify", traced, self.wl.check,
                                         plan_inputs, rhs, out, limit)
                    self.probe("ops")
                    for name, value, lim in checks:
                        if not value <= lim:  # also catches NaN
                            ok = False
                            self.failures.append(f"op {i}: {name} {value!r} > {lim!r}")
                        if name == "err":
                            errs.append((value, value / lim))
        except Exception:  # a failed operation is counted, the run goes on
            ok = False
            self.failures.append(f"op {i}: raised\n{traceback.format_exc()}")
        if not ok:
            self.failed += 1
        if errs:
            op_max = (max(e for e, _ in errs), max(r for _, r in errs))
            self.worst = tuple(map(max, self.worst, op_max))
            if i < self.wl.min_ops:
                self.op_errors.append(op_max)

    def op_phase(self):
        t0 = time.perf_counter()
        i = 0
        while i < self.wl.min_ops or time.perf_counter() - t0 < self.seconds:
            self.operation(i)
            i += 1

    def peak_mb(self):
        """Peak of one untimed plan plus apply under tracemalloc, in MB."""
        plan_inputs, rhs = self._first_inputs()
        tracemalloc.start()
        try:
            self.wl.apply(self.wl.plan(plan_inputs), rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1e6

    def end_to_end(self, peak_mb):
        """The unscaled timings, and the end-to-end metrics."""
        # NaN where every operation raised; the run has failed then anyway
        def pct(values, q):
            return float(np.percentile(values, q)) if values else float("nan")

        def mean(values):
            return float(np.mean(values)) if values else float("nan")

        # Apply and oracle times are means: on a shared host they split into
        # an uncontended and a contended mode, a run's median jumps between
        # the two while the mean follows the share of contended time.
        def timings(setup, apply, verify):
            return {"setup_s": pct(setup, 50), "apply_s": mean(apply),
                    "apply_p90_s": pct(apply, 90), "verify_s": mean(verify)}

        setup, apply, verify = (self.samples[phase, False]
                                for phase in ("setup", "apply", "verify"))
        scale = self.probe.scaled
        scaled = timings(scale(setup, self._setup_probes()), scale(apply, "ops"),
                         scale(verify, "ops"))
        return timings(setup, apply, verify), {
            **scaled,
            "max_err": pct([e for e, _ in self.op_errors], 50),
            "err_over_bound": pct([r for _, r in self.op_errors], 50),
            "peak_mb": peak_mb,
        }

    def _setup_probes(self):
        # set-ups inside the operations (sinc-paper) go with the operations' probes
        return "setup" if self.wl.setups else "ops"

    def host_factors(self):
        return {"setup": self.probe.factor(self._setup_probes()),
                "ops": self.probe.factor("ops")}

    def per_layer(self):
        tr = self.tracer
        tops = {phase: [s for s in tr.spans if s.parent is None and s.name == "bench." + phase]
                for phase in ("setup", "apply", "verify")}
        inside = {phase: [tr.descendants(top) for top in spans] for phase, spans in tops.items()}
        out = {}
        for name, phase, span_names, value in TRACED:
            total = sum(value(tr, s) for desc in inside[phase] for s in desc
                        if s.name in span_names)
            out[name] = total / max(1, len(tops[phase]))
        counts = computed_counts(self.plan)
        out.update({k: counts[k] for k in COMPUTED})
        for phase in ("setup", "apply"):
            n = max(1, len(tops[phase]))
            out[f"trace.{phase}.wall_s"] = sum(s.duration for s in tops[phase]) / n
            out[f"trace.{phase}.layers_self_s"] = sum(
                s.self_s for desc in inside[phase] for s in desc) / n
            traced, plain = self.samples[phase, True], self.samples[phase, False]
            out[f"trace.{phase}.overhead_s"] = (
                statistics.median(traced) - statistics.median(plain)
                if traced and plain else 0.0)
        return out


def weight_paths(tracer):
    return sorted({_weight_path(tracer, s) for s in tracer.spans
                   if s.name == "sinc_approx.cc_quadrature"})


def run_workload(wl, seconds, trace):
    """Run ``wl`` and return ``(summary, result_record, spans)``."""
    run = Run(wl, seconds, trace)
    paths = run.warm_up()
    if wl.setups:
        run.setup_phase()
    run.op_phase()
    record = {
        "workload": wl.name, "why": WHY[wl.name], "seed": wl.seed,
        "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "inputs_sha256": run.inputs_hash.hexdigest(),
        "samples": {f"{phase}{'_traced' if traced else ''}": len(v)
                    for (phase, traced), v in run.samples.items() if v},
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures[:20],
    }
    record["params"] = {**wl.params(run.plan), "weight_path": paths}
    if trace:
        metrics = run.per_layer()
        spec = SPEC["per_layer"]
    else:
        record["unscaled"], metrics = run.end_to_end(run.peak_mb())
        record["host_factors"] = run.host_factors()
        spec = SPEC["end_to_end"]
        record["raw"] = {phase: run.samples[phase, False]
                         for phase in ("setup", "apply", "verify")}
        record["raw"]["probe"] = run.probe.samples
        record["op_max_errors"] = [e for e, _ in run.op_errors]
        record["worst_err"], record["worst_err_over_bound"] = run.worst
    record["computed"] = computed_counts(run.plan)
    record["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in spec}
    summary = {"correct": run.failed == 0, "attempted": run.attempted,
               "failed": run.failed, "metrics": record["metrics"]}
    spans = run.tracer.dump() if trace else None
    return summary, record, spans


def _print_report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  seconds {record['seconds']}")
    print(f"  params {json.dumps(record['params'])}")
    print(f"  computed per apply {json.dumps(record['computed'])}")
    print(f"  samples {json.dumps(record['samples'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    if "unscaled" in record:
        print("  timings above are at the probe's reference speed; unscaled "
              + ", ".join(f"{k} {v:.6g} s" for k, v in record["unscaled"].items())
              + "; mean host factors " + json.dumps(record["host_factors"]))
    if record["trace"]:
        mt = record["metrics"]
        for phase in ("setup", "apply"):
            print(f"  {phase}: layer self times sum to "
                  f"{mt[f'trace.{phase}.layers_self_s']['value']:.6g} s of "
                  f"{mt[f'trace.{phase}.wall_s']['value']:.6g} s traced wall; "
                  f"tracing overhead {mt[f'trace.{phase}.overhead_s']['value']:.3g} s")
    print(f"  operations {record['attempted']} attempted, {record['failed']} failed")
    for msg in record["failures"]:
        print(f"  FAILED {msg}")


def main(argv, src_dir):
    p = argparse.ArgumentParser(description="Run one sincfft benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    lib = pathlib.Path(sincfft.__file__).resolve()
    if pathlib.Path(src_dir).resolve() not in lib.parents:
        print(f"benchmark: sincfft imported from {lib}, not from {src_dir}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    summary, record, spans = run_workload(wl, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (RESULTS_DIR / f"{stem}_spans.json").write_text(json.dumps(spans))
    _print_report(record)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
