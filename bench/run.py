"""tangentgraph benchmark: one workload, timed end to end or traced by layer.

Usage (from the repository root):

    python3 bench/run.py --workload sphere-c1 --seed 0 --seconds 25 --trace 0

Each run starts fresh single-threaded worker processes (OpenBLAS and
OpenMP pinned to one thread in the workers' environment only).  Set-up is
timed in SETUP_REPEATS set-up-only workers plus the measuring worker, and
reported as the median; traced runs skip the extra set-ups.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones, and every span is written
under bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("sphere-c1", "circle-theorem", "torus-c1", "sphere-ducert")
DEFAULT_SEED = 0
SETUP_REPEATS = 4
SETUP_TIMEOUT_S = 60
# Slack past --seconds for the measuring worker's set-up and last verdict.
RUN_TIMEOUT_SLACK_S = 90


class BenchError(Exception):
    pass


def run_worker(args, seconds: int, extra: list, timeout: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)] + extra
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tangentgraph" / "__init__.py").is_file():
        print(f"no tangentgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        repeats = 0 if args.trace else SETUP_REPEATS
        setups = [run_worker(args, 0, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
                  for _ in range(repeats)]
        result = run_worker(args, args.seconds, [],
                            args.seconds + RUN_TIMEOUT_SLACK_S)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    metrics = result["metrics"]
    attempted, failed = result["attempted"], len(result["failures"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["pass_frac"] = {"value": 1.0 - failed / attempted,
                                "unit": "fraction"}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} verdicts, {failed} failed "
          f"(fail_frac {failed / attempted:.4g}), "
          f"setup samples {[round(s, 4) for s in setups]}")
    print("machine " + json.dumps(result["machine"]))
    if "verdict_walls" in result:
        print("verdict walls " + json.dumps(
            [round(w, 4) for w in result["verdict_walls"]]))
    for failure in result["failures"]:
        print("FAILED " + failure)
    if args.trace:
        print("self-time share " + json.dumps(
            {k: round(v, 4) for k, v in result["self_share"].items()}))
        print("spans written to " + result["spans"])
        if result["unmeasured_layers"]:
            print("unmeasured layers " + json.dumps(result["unmeasured_layers"]))
    for name, metric in metrics.items():
        print(f"  {name:38s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
