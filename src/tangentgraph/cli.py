"""Batch front door: build zoo immersions, run extraction, radii,
verification, and counterexample commands, and emit JSON/CSV reports.

Exit codes: 0 success / property holds, 1 property fails (a legitimate
negative result), 2 inconclusive (e.g. boundary escape), 3 invalid input.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

from . import __version__
from .errors import (
    GeometryError,
    Inconclusive,
    InvalidParams,
    PreconditionViolated,
    UnknownEntry,
)
from .extractor import FrameContext, extract
from .radius import KIND_C0, KIND_C1, max_radius
from .theorems import (
    analyze_counterexample,
    certify_du_bound,
    check_distance_bound,
    check_enlargement,
    check_inclusion,
    lambda_cap,
    verify_main_theorem,
)
from .zoo import ZOO, ParamPoint, zoo_build

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INVALID = 3

SCHEMA_VERSION = 1

# Every zoo parameter is a flag, typed like its default value.
_ENTRY_FLAGS = {
    name: type(value) for entry in ZOO.values() for name, value in entry.defaults.items()
}


# The optional verify fields each statement reads; setting another one, by
# flag or in --config, is an error.
_VERIFY_READS = {
    "theorem": {"samples", "tol", "grid"},
    "enlargement": {"r", "samples", "tol", "grid"},
    "distance": {"r", "rho", "q", "chart", "grid"},
    "inclusion": {"r", "q", "chart"},
    "du-cert": {"r", "q", "chart", "grid"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Argument errors mapped onto the invalid-input exit code."""


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--out", help="output path (JSON or CSV per command)")
    p.add_argument("--quiet", action="store_true", default=None)


def _add_entry_flags(p):
    p.add_argument("--immersion", help="zoo entry name")
    for name, typ in _ENTRY_FLAGS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, dest=f"param_{name}")


def build_parser() -> _Parser:
    parser = _Parser(prog="tangentgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_zoo = sub.add_parser("zoo", help="list built-in immersions")
    p_zoo.add_argument("action", choices=["list"])
    _add_common(p_zoo)

    p_ext = sub.add_parser("extract", help="graph sample over one base point")
    _add_entry_flags(p_ext)
    p_ext.add_argument("--q", help="base coords, comma separated")
    p_ext.add_argument("--chart", type=int, default=None)
    p_ext.add_argument("--r", type=float, required=False)
    p_ext.add_argument("--grid", type=int, default=None)
    p_ext.add_argument("--h", type=float, default=None, dest="cell")
    _add_common(p_ext)

    p_rad = sub.add_parser("radii", help="maximal-radius report")
    _add_entry_flags(p_rad)
    p_rad.add_argument("--kind", choices=["c0", "c1"], required=False)
    p_rad.add_argument("--lambda", dest="lam", type=float, required=False)
    p_rad.add_argument("--tol", type=float, default=None)
    p_rad.add_argument("--grid", type=int, default=None)
    p_rad.add_argument("--samples", type=int, default=None,
                       help="sampler points per chart axis")
    _add_common(p_rad)

    p_ver = sub.add_parser("verify", help="check a statement numerically")
    p_ver.add_argument(
        "statement",
        choices=list(_VERIFY_READS),
    )
    _add_entry_flags(p_ver)
    p_ver.add_argument("--lambda", dest="lam", type=float, required=False)
    p_ver.add_argument("--r", type=float, default=None)
    p_ver.add_argument("--rho", type=float, default=None)
    p_ver.add_argument("--q", default=None)
    p_ver.add_argument("--chart", type=int, default=None)
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--grid", type=int, default=None)
    p_ver.add_argument("--samples", type=int, default=None)
    _add_common(p_ver)

    p_ce = sub.add_parser("counterexample", help="free-line graph analysis")
    p_ce.add_argument("--eps", type=float, required=False)
    p_ce.add_argument("--delta", type=float, required=False)
    p_ce.add_argument("--r", type=float, required=False)
    p_ce.add_argument("--angles", type=int, default=None)
    _add_common(p_ce)

    return parser


def _merge_config(args) -> dict:
    """Known-field config dict from file plus flag overrides."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise InvalidParams("config file must hold a JSON object")
        known = set(vars(args)) | {"params"}
        for key in loaded:
            if key not in known:
                raise InvalidParams(f"unknown config field {key!r}")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        if key.startswith("param_"):
            cfg.setdefault("params", {})[key[len("param_"):]] = value
        else:
            cfg[key] = value
    cfg.pop("config", None)
    return cfg


def _build_immersion(cfg):
    name = cfg.get("immersion")
    if not name:
        raise InvalidParams("an --immersion entry name is required")
    return zoo_build(name, cfg.get("params", {}))


def _parse_q(cfg, immersion) -> ParamPoint:
    raw = str(cfg.get("q", "0"))
    coords = [float(v) for v in raw.split(",") if v != ""]
    if len(coords) == 1 and immersion.m > 1:
        coords = coords * immersion.m
    if len(coords) != immersion.m:
        raise InvalidParams(
            f"base point needs {immersion.m} coordinates, got {len(coords)}"
        )
    chart = cfg.get("chart")
    if chart is None:
        chart = 4 if immersion.name == "sphere2" else 0
    return immersion.point(int(chart), np.array(coords))


def _sample(cfg, immersion) -> list:
    per_axis = int(cfg.get("samples", 8))
    if per_axis < 1:
        raise InvalidParams("--samples must be at least 1")
    return immersion.sample_points(per_axis=per_axis)


def _emit(cfg, result: dict) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {k: v for k, v in sorted(cfg.items()) if k not in ("out", "quiet")},
        "result": result,
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if not cfg.get("quiet", False):
        print(text)


def _cmd_zoo(cfg) -> int:
    result = {"entries": sorted(ZOO)}
    _emit(cfg, result)
    return EXIT_OK


def _cmd_extract(cfg) -> int:
    immersion = _build_immersion(cfg)
    if cfg.get("r") is None:
        raise InvalidParams("extract requires --r")
    q = _parse_q(cfg, immersion)
    ctx = FrameContext.at(immersion, q, float(cfg["r"]))
    sample = extract(ctx, int(cfg.get("grid", 256)), cfg.get("cell"))
    out = cfg.get("out") or "graph_sample.csv"
    sample.to_csv(out)
    if not cfg.get("quiet", False):
        print(json.dumps({"written": out, "status_counts": sample.status_counts(),
                          "cell_size": sample.region_h}))
    return EXIT_OK


def _cmd_radii(cfg) -> int:
    immersion = _build_immersion(cfg)
    if cfg.get("kind") not in ("c0", "c1"):
        raise InvalidParams("radii requires --kind c0|c1")
    if cfg.get("lam") is None:
        raise InvalidParams("radii requires --lambda")
    kind = KIND_C0 if cfg["kind"] == "c0" else KIND_C1
    Q = _sample(cfg, immersion)
    report = max_radius(
        immersion,
        float(cfg["lam"]),
        kind,
        Q,
        tol=float(cfg.get("tol", 1e-3)),
        N=cfg.get("grid"),
    )
    _emit(cfg, report.to_dict())
    return EXIT_OK


def _cmd_verify(cfg) -> int:
    immersion = _build_immersion(cfg)
    statement = cfg["statement"]
    lam = cfg.get("lam")
    if lam is None:
        raise InvalidParams("verify requires --lambda")
    lam = float(lam)
    grid = cfg.get("grid")
    reads = _VERIFY_READS[statement]
    if statement == "enlargement" and cfg.get("r") is not None:
        reads = reads - {"tol"}  # tol only brackets the default base radius
    stray = [f"--{key}" for key in sorted(set().union(*_VERIFY_READS.values()) - reads)
             if cfg.get(key) is not None]
    if stray:
        raise InvalidParams(f"verify {statement} does not use {', '.join(stray)}")

    if statement == "theorem":
        Q = _sample(cfg, immersion)
        verdict = verify_main_theorem(
            immersion, lam, Q, tol=float(cfg.get("tol", 1e-3)), N=grid,
        )
        _emit(cfg, verdict.to_dict())
        return EXIT_OK if verdict.holds else EXIT_FAIL

    if statement == "enlargement":
        Q = _sample(cfg, immersion)
        r = cfg.get("r")
        if r is None:
            base = max_radius(immersion, lam, KIND_C1, Q,
                              tol=float(cfg.get("tol", 1e-3)), N=grid)
            if base.status != "bracketed":
                raise Inconclusive(f"no usable base radius ({base.status})")
            r = 0.9 * base.r_lo
        holds = check_enlargement(immersion, float(r), lam, Q, N=grid)
        _emit(cfg, {"holds": holds, "r": float(r), "lambda": lam})
        return EXIT_OK if holds else EXIT_FAIL

    q = _parse_q(cfg, immersion)
    if cfg.get("r") is None:
        raise InvalidParams(f"{statement} requires --r")
    r = float(cfg["r"])
    if statement == "distance":
        rho = r if cfg.get("rho") is None else float(cfg["rho"])
        holds = check_distance_bound(immersion, q, rho, r, lam, N=grid)
        _emit(cfg, {"holds": holds, "r": r, "rho": rho, "lambda": lam})
        return EXIT_OK if holds else EXIT_FAIL

    if statement == "inclusion":
        holds = check_inclusion(immersion, q, r, lam)
        _emit(cfg, {"holds": holds, "r": r, "lambda": lam})
        return EXIT_OK if holds else EXIT_FAIL

    cert = certify_du_bound(immersion, q, r, lam, N=grid)  # du-cert
    result = cert.to_dict()
    result["holds"] = result["max_actual"] <= result["global_bound"]
    _emit(cfg, result)
    return EXIT_OK if result["holds"] else EXIT_FAIL


def _cmd_counterexample(cfg) -> int:
    for key in ("eps", "delta", "r"):
        if cfg.get(key) is None:
            raise InvalidParams(f"counterexample requires --{key}")
    report = analyze_counterexample(
        float(cfg["eps"]), float(cfg["delta"]), float(cfg["r"]),
        angle_grid=int(cfg.get("angles", 4096)),
    )
    _emit(cfg, report.to_dict())
    return EXIT_OK if report.verdict else EXIT_FAIL


_COMMANDS = {"zoo": _cmd_zoo, "extract": _cmd_extract, "radii": _cmd_radii,
             "verify": _cmd_verify, "counterexample": _cmd_counterexample}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = _merge_config(parser.parse_args(argv))
        return _COMMANDS[cfg["command"]](cfg)
    except (SystemExit2, InvalidParams, UnknownEntry, PreconditionViolated,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except GeometryError as exc:  # Inconclusive, ProbeHypothesisFailed, ...
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
