"""Smoke test of the benchmark at reduced sizes.

Run from the repository root:  python -m pytest -q benchmarks/tests
"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for _p in (str(BENCH), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import bench_runner  # noqa: E402
import sincfft.fft_core  # noqa: E402
import sincfft.nnfft  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)
SMALL = {
    "nnfft-sinh": {"N": 64, "M": 128},
    "sinc-general": {"N": 64, "L": 128},
    "sinc-paper": {"N": 64, "L1": 32},
    "nfft-bspline": {"N": 64, "M": 128},
}


def _run(name, seed, trace):
    wl = WORKLOADS[name](seed, **SMALL[name])
    wl.setups, wl.min_ops = min(wl.setups, 2), 4
    return bench_runner.run_workload(wl, 0.0, trace)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    summary, record, spans = _run(name, 3, False)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 4
    assert spans is None
    for m in SPEC["end_to_end"]:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    assert record["metrics"]["err_over_bound"]["value"] < 1.0
    assert all(f > 0 for f in record["host_factors"].values())


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_inputs_and_error(name):
    first, again, other = (_run(name, s, False)[1] for s in (5, 5, 6))
    assert first["inputs_sha256"] == again["inputs_sha256"] != other["inputs_sha256"]
    assert first["op_max_errors"] == again["op_max_errors"]
    assert first["metrics"]["max_err"] == again["metrics"]["max_err"]
    assert first["computed"] == again["computed"] == other["computed"]
    assert first["params"] == again["params"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name):
    original_fft = sincfft.fft_core.fft
    summary, record, spans = _run(name, 3, True)
    assert sincfft.fft_core.fft is original_fft  # wrappers removed again
    assert summary["correct"] and summary["failed"] == 0
    mt = {k: v["value"] for k, v in summary["metrics"].items()}
    assert all(np.isfinite(mt[m["name"]]) for m in SPEC["per_layer"])
    assert mt["direct.terms"] > 0 and mt["fft_core.fft.calls"] >= 1
    assert mt["fft_core.fft.len"] == record["computed"]["fft_len"]
    for phase in ("setup", "apply"):
        assert 0 < mt[f"trace.{phase}.layers_self_s"] <= mt[f"trace.{phase}.wall_s"]
    assert spans and {"name", "start", "end", "parent"} <= set(spans[0])


def test_host_probe_scales_each_sample_by_the_probes_around_it():
    probe = bench_runner.HostProbe()
    ref = bench_runner.PROBE_REF_S
    probe.samples["ops"] = [ref] * 6 + [2 * ref] * 6  # the host halves its speed
    scaled = probe.scaled([1.0] * 12, "ops")
    assert scaled[:4] == pytest.approx([1.0] * 4)
    assert scaled[-4:] == pytest.approx([0.5] * 4)
    # one probe per several samples, as for sinc-paper's set-ups: probes 0, 4, 8
    assert probe.scaled([1.0] * 3, "ops") == pytest.approx([1.0, 1 / 1.2, 0.5])
    assert probe.scaled([], "ops") == []


def test_command_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_checks_against_generated_inputs(monkeypatch):
    # a plan built from wrongly rescaled frequencies must fail every operation
    rescale = sincfft.nnfft.rescale_frequencies

    def off_by_a_little(N, v, sigma1, m1):
        n_star, v_star = rescale(N, v, sigma1, m1)
        return n_star, v_star * 1.001

    monkeypatch.setattr(sincfft.nnfft, "rescale_frequencies", off_by_a_little)
    summary = _run("nnfft-sinh", 3, False)[0]
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] == 4
