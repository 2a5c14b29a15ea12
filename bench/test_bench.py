"""Tests of the benchmark itself: tracing, accounting, gates and contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tangentgraph as tg
import run
import tracing
import worker
import workloads
from tracing import WRAPS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


class SmallSphereC1(workloads.SphereC1):
    N, TOL = 17, 2e-3


class SmallCircleTheorem(workloads.CircleTheorem):
    POINTS = 1


class SmallTorusC1(workloads.TorusC1):
    N = 17


class SmallSphereDuCert(workloads.SphereDuCert):
    NODES_PER_RHO = 4


SMALL = {
    "sphere-c1": SmallSphereC1,
    "circle-theorem": SmallCircleTheorem,
    "torus-c1": SmallTorusC1,
    "sphere-ducert": SmallSphereDuCert,
}


def small_runner(name, seed=0, count=2):
    wl = SMALL[name](name, workloads.WORKLOADS[name].root)
    f = wl.build()
    return worker.Runner(wl, f, wl.inputs(f, np.random.default_rng(seed), count))


def wrapped_objects():
    return [vars(tracing._resolve(owner))[attr] for owner, attr, _, _ in WRAPS]


def wrong_verdict(name, out):
    """A copy of a verdict with one value moved past its gate."""
    if name == "circle-theorem":
        return SimpleNamespace(**dict(vars(out), margin=0.4))
    if name == "sphere-ducert":
        x, _, actual = out.per_node[0]
        return SimpleNamespace(per_node=[(x, 2 * out.global_bound, actual)],
                               global_bound=out.global_bound,
                               max_actual=lambda: actual)
    return SimpleNamespace(status="bracketed", r_lo=1.01 * out.r_lo,
                           r_hi=1.01 * out.r_hi,
                           midpoint=lambda: 1.01 * out.midpoint())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_configuration_gate(name):
    runner = small_runner(name)
    wl, inp = runner.workload, runner.inputs[0]
    out = wl.verdict(runner.f, inp)
    assert wl.check(out, inp) == ""
    assert wl.check(wrong_verdict(name, out), inp) != ""
    runner.run(1, Tracer())
    assert runner.attempted == 1
    assert runner.failures == []


def test_traced_probes_match_radius_reports():
    f = tg.zoo_build("circle", {"R": 1.0})
    tracer = Tracer()
    reports = []
    for i, t in enumerate((0.3, -2.0)):
        tracer.verdict = i
        with tracer.installed(), tracer.span("radius.bracket"):
            reports.append(tg.max_radius(f, 0.5, tg.KIND_C1, [f.point(0, [t])],
                                         tol=1e-2, N=65))
    metrics = worker.per_layer_metrics(tracer, [1.0, 1.0], [1.0, 1.0])
    assert metrics["radius.probes"][0] * 2 == sum(r.probes for r in reports)
    # One base point per bracket: every probe evaluates exactly one witness.
    assert metrics["radius.witnesses_per_probe"][0] == 1.0


def test_ducert_nodes_match_per_node():
    runner = small_runner("sphere-ducert", count=1)
    expected = len(runner.workload.verdict(runner.f, runner.inputs[0]).per_node)
    tracer = Tracer()
    wall, _ = runner.run(0, tracer)
    metrics = worker.per_layer_metrics(tracer, [wall], [wall])
    assert metrics["theorems.ducert.nodes"][0] == expected
    assert metrics["geometry.probe_cert.calls"][0] == expected


def test_self_times_are_nonnegative_and_within_wall_time(tmp_path):
    runner = small_runner("sphere-c1", count=1)
    tracer = Tracer()
    wall, _ = runner.run(0, tracer)
    assert tracer.self_s
    assert min(tracer.self_s.values()) >= -1e-9
    assert sum(tracer.self_s.values()) <= wall + 1e-9
    tracer.save(tmp_path / "spans.npz", {"workload": "sphere-c1"})
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == sum(tracer.calls.values())
    assert (spans["end"] >= spans["start"]).all()
    assert (spans["parent"] < np.arange(len(spans["parent"]))).all()
    assert (spans["verdict"] == 0).all()
    assert set(spans["names"]) == set(tracer.calls)


def test_wrapped_attributes_are_restored():
    before = wrapped_objects()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            during = wrapped_objects()
            raise RuntimeError("verdict failed")
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, wrapped_objects()))
    assert tracer.missing == []


def test_missing_name_reports_unmeasured_layer(monkeypatch):
    ghost = ("tangentgraph.radius", "_removed_helper", "radius.ghost", None)
    monkeypatch.setattr(tracing, "WRAPS", WRAPS + (ghost,))
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.unmeasured_layers() == ["radius.ghost"]


def test_metric_names_match_benchmark_spec():
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    tracer = Tracer()
    layer = worker.per_layer_metrics(tracer, [1.0], [1.0])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
    end_to_end, _ = worker.measure(small_runner("sphere-ducert", count=1), 0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(
        {name: unit for name, (_, unit) in end_to_end.items()},
        setup_s="s", pass_frac="fraction")


def test_run_fails_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sphere-c1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
