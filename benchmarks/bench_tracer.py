"""Span tracing around calls into the ``sincfft`` modules, from outside.

Nothing in the library changes.  :class:`Tracer` re-binds public functions
in the module namespaces their callers look them up in
(``sincfft.fft_core.fft``, ``sincfft.nnfft.phi_eval``, ...) with wrappers
that record one span per call, and puts the originals back when the
:meth:`Tracer.installed` block ends.  Spans are kept in memory and handed
out by :meth:`Tracer.dump` for writing when the run ends.

A span's self time is its duration minus the durations of its direct
children.  The code is single-threaded, so children never overlap and
their durations add up to the part of the parent's interval they cover.
"""

import contextlib
import functools
import importlib
import time

import numpy as np


def _pts(pos):
    return lambda args: {"pts": int(np.size(args[pos]))}


def _terms(coef_pos, target_pos):
    return lambda args: {"terms": int(np.size(args[coef_pos]) * np.size(args[target_pos]))}


# (module whose namespace callers use, attribute, span name, counts from args)
WRAPPED = [
    ("sincfft.fft_core", "fft", "fft_core.fft", lambda a: {"len": int(np.size(a[0]))}),
    ("sincfft.fft_core", "dct1", "fft_core.dct1", lambda a: {"len": int(np.size(a[0]))}),
    ("sincfft.nfft", "phi_eval", "windows.phi_eval", _pts(1)),
    ("sincfft.nnfft", "phi_eval", "windows.phi_eval", _pts(1)),
    ("sincfft.nfft", "phi_hat_eval", "windows.phi_hat_eval", _pts(1)),
    ("sincfft.nnfft", "phi_hat_eval", "windows.phi_hat_eval", _pts(1)),
    ("sincfft.windows", "cardinal_bspline", "special.cardinal_bspline", _pts(1)),
    ("sincfft.nnfft", "rescale_frequencies", "nnfft.rescale_frequencies", None),
    ("sincfft.nnfft", "nnfft_plan", "nnfft.plan", None),
    ("sincfft.fast_sinc", "nnfft_plan", "nnfft.plan", None),
    ("sincfft.nnfft", "nnfft_trafo", "nnfft.trafo", None),
    ("sincfft.fast_sinc", "nnfft_trafo", "nnfft.trafo", None),
    ("sincfft.nfft", "nfft_plan", "nfft.plan", None),
    ("sincfft.fast_sinc", "nfft_plan", "nfft.plan", None),
    ("sincfft.sinc_approx", "nfft_plan", "nfft.plan", None),
    ("sincfft.nfft", "nfft_trafo", "nfft.trafo", None),
    ("sincfft.fast_sinc", "nfft_trafo", "nfft.trafo", None),
    ("sincfft.nfft", "nfft_adjoint", "nfft.adjoint", None),
    ("sincfft.fast_sinc", "nfft_adjoint", "nfft.adjoint", None),
    ("sincfft.sinc_approx", "nfft_adjoint", "nfft.adjoint", None),
    ("sincfft.sinc_approx", "cc_quadrature", "sinc_approx.cc_quadrature",
     lambda a: {"n": int(a[0])}),
    ("sincfft.fast_sinc", "cc_quadrature", "sinc_approx.cc_quadrature",
     lambda a: {"n": int(a[0])}),
    ("sincfft.fast_sinc", "sinc_plan", "fast_sinc.plan", None),
    ("sincfft.fast_sinc", "fast_sinc_transform", "fast_sinc.apply", None),
    ("sincfft.direct", "nndft_direct", "direct.nndft", _terms(0, 2)),
    ("sincfft.direct", "ndft_direct", "direct.ndft", _terms(0, 1)),
    ("sincfft.direct", "sinc_transform_direct", "direct.sinc", _terms(0, 2)),
]


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s", "counts")

    def __init__(self, sid, name, parent, counts):
        self.id = sid
        self.name = name
        self.parent = parent
        self.counts = counts
        self.child_s = 0.0
        self.start = self.end = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end,
                "self_s": self.self_s, "counts": self.counts}


class Tracer:
    """Records spans for the wrapped library calls and the benchmark's phases."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, counts):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, counts)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += sp.duration

    @contextlib.contextmanager
    def span(self, name, **counts):
        sp = self._open(name, counts)
        try:
            yield sp
        finally:
            self._close(sp)

    def _wrap(self, fn, name, count_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(name, count_fn(args) if count_fn else {})
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sp)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrappers are in place for the body of the ``with`` block only."""
        saved = []
        try:
            for modname, attr, name, count_fn in WRAPPED:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, count_fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def descendants(self, sp):
        """Every span opened inside ``sp``; ids follow opening order."""
        out = []
        for s in self.spans[sp.id + 1:]:
            if s.start >= sp.end:
                break
            out.append(s)
        return out

    def dump(self):
        return [sp.as_dict() for sp in self.spans]
