"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh single-threaded process per workload.  Set-up
(imports, immersion build, input generation, lazy caches) is timed from
the first line of this file to the first verdict.  Verdicts then run back
to back, one client in a closed loop, until the next one would end past
the time budget.  With --trace, every input is run once untraced and once
traced, in alternating order, so the tracing overhead is measured on the
same inputs.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tangentgraph  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import INPUTS_PER_RUN, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
MAX_REPORTED_FAILURES = 5


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, traced: list, untraced: list) -> dict:
    """Per-verdict layer metrics from the traced verdicts' spans and counts.

    ``traced`` and ``untraced`` hold the wall times of the same inputs, in
    pairs; the tracing overhead is the median ratio within a pair.
    """
    v = len(traced)
    calls, self_s, count = tracer.calls, tracer.self_s, tracer.counts
    probes, witnesses = calls["radius.probe"], count["radius.witnesses"]
    solve_calls, solve_rows = calls["extractor.solve"], count["extractor.solve.rows"]
    return {
        "radius.probes": (probes / v, "1/verdict"),
        "radius.witnesses": (witnesses / v, "1/verdict"),
        "radius.witnesses_per_probe": (_ratio(witnesses, probes), "1/probe"),
        "extractor.flood.calls": (calls["extractor.flood"] / v, "1/verdict"),
        "extractor.flood.self_s": (self_s["extractor.flood"] / v, "s/verdict"),
        "extractor.flood.cells": (count["extractor.flood.cells"] / v, "1/verdict"),
        "extractor.flood.cells_per_s": (
            _ratio(count["extractor.flood.cells"], self_s["extractor.flood"]),
            "cells/s"),
        "extractor.flood.per_component": (
            _ratio(calls["extractor.flood"], calls["extractor.component"]),
            "floods/component"),
        "extractor.contains.calls": (calls["extractor.contains"] / v, "1/verdict"),
        "extractor.contains.rows": (
            count["extractor.contains.rows"] / v, "1/verdict"),
        "extractor.contains.self_s": (
            self_s["extractor.contains"] / v, "s/verdict"),
        "extractor.contains.rows_per_s": (
            _ratio(count["extractor.contains.rows"], self_s["extractor.contains"]),
            "rows/s"),
        "extractor.solve.calls": (solve_calls / v, "1/verdict"),
        "extractor.solve.rows": (solve_rows / v, "1/verdict"),
        "extractor.solve.rows_per_call": (_ratio(solve_rows, solve_calls),
                                          "rows/call"),
        "extractor.solve.self_s": (self_s["extractor.solve"] / v, "s/verdict"),
        "extractor.solve.ok_frac": (
            _ratio(count["extractor.solve.ok"], solve_rows), "fraction"),
        "extractor.solve.jac_calls_per_call": (
            _ratio(count["extractor.solve.jac_calls"], solve_calls), "calls/call"),
        "extractor.extract.self_s": (self_s["extractor.extract"] / v, "s/verdict"),
        "extractor.extract.nodes": (
            count["extractor.extract.nodes"] / v, "1/verdict"),
        "extractor.sheet.self_s": (self_s["extractor.sheet"] / v, "s/verdict"),
        "extractor.norms.self_s": (self_s["extractor.norms"] / v, "s/verdict"),
        "zoo.eval.calls": (calls["zoo.eval"] / v, "1/verdict"),
        "zoo.eval.rows": (count["zoo.eval.rows"] / v, "1/verdict"),
        "zoo.eval.self_s": (self_s["zoo.eval"] / v, "s/verdict"),
        "zoo.jac.calls": (calls["zoo.jac"] / v, "1/verdict"),
        "zoo.jac.rows": (count["zoo.jac.rows"] / v, "1/verdict"),
        "zoo.jac.self_s": (self_s["zoo.jac"] / v, "s/verdict"),
        "geometry.frame.self_s": (self_s["geometry.frame"] / v, "s/verdict"),
        "geometry.probe_cert.calls": (
            calls["geometry.probe_cert"] / v, "1/verdict"),
        "geometry.probe_cert.self_s": (
            self_s["geometry.probe_cert"] / v, "s/verdict"),
        "theorems.ducert.self_s": (self_s["theorems.ducert"] / v, "s/verdict"),
        "theorems.ducert.nodes": (
            count["theorems.ducert.nodes"] / v, "1/verdict"),
        "trace.overhead_frac": (
            statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0,
            "fraction"),
        "trace.verdicts": (v, "count"),
    }


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Times verdicts of one workload and gates each against its reference."""

    def __init__(self, workload, f, inputs):
        self.workload = workload
        self.f = f
        self.inputs = inputs
        self.attempted = 0
        self.failures = []

    def run(self, index: int, tracer: Tracer = None):
        """One verdict on input ``index``: (wall seconds, CPU seconds)."""
        wl, inp = self.workload, self.inputs[index % len(self.inputs)]
        out = error = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = wl.verdict(self.f, inp)
            else:
                tracer.verdict = index
                with tracer.installed(), tracer.span(wl.root):
                    out = wl.verdict(self.f, inp)
        except Exception as exc:  # a raising verdict is a failed verdict
            error = f"{type(exc).__name__}: {exc}"
            if len(self.failures) < MAX_REPORTED_FAILURES:
                traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        self.attempted += 1
        detail = error or wl.check(out, inp)
        if detail:
            self.failures.append(f"verdict {index}: {detail}")
        elif tracer is not None:
            wl.count(tracer, out)
        return wall, cpu


def measure(runner: Runner, seconds: float):
    """End-to-end metrics and the wall time of every verdict."""
    deadline = time.perf_counter() + seconds
    walls, cpus = [], []
    while True:
        wall, cpu = runner.run(len(walls))
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    return {
        "verdict_s": (statistics.median(walls), "s"),
        "cpu_s_per_verdict": (statistics.median(cpus), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, walls


def measure_traced(runner: Runner, seconds: float, spans_path: Path,
                   info: dict) -> dict:
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    while True:
        index = len(traced)
        pair_start = time.perf_counter()
        # Alternate which run of the pair goes first.
        if index % 2 == 0:
            untraced.append(runner.run(index)[0])
            traced.append(runner.run(index, tracer)[0])
        else:
            traced.append(runner.run(index, tracer)[0])
            untraced.append(runner.run(index)[0])
        pair = time.perf_counter() - pair_start
        if time.perf_counter() + pair > deadline:
            break
    metrics = per_layer_metrics(tracer, traced, untraced)
    total = sum(tracer.self_s.values())
    info["self_share"] = {layer: s / total
                          for layer, s in tracer.self_s.most_common()}
    info["unmeasured_layers"] = tracer.unmeasured_layers()
    info["traced_wall_s"] = sum(traced)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(spans_path, info)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (BENCH_DIR.parent / "src").resolve()
    if src not in Path(tangentgraph.__file__).resolve().parents:
        print(f"tangentgraph was imported from {tangentgraph.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    f = workload.build()
    inputs = workload.inputs(f, np.random.default_rng(args.seed), INPUTS_PER_RUN)
    f.ambient_bbox_diag()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(workload, f, inputs)
    info = {"workload": args.workload, "seed": args.seed,
            "machine": machine_info()}
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        metrics = measure_traced(runner, args.seconds, spans_path, info)
        info["spans"] = str(spans_path.relative_to(BENCH_DIR.parent))
    else:
        metrics, info["verdict_walls"] = measure(runner, args.seconds)
    info.update(setup_s=setup_s, attempted=runner.attempted,
                failures=runner.failures,
                metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
