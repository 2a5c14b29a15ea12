"""Batch front door: build zoo immersions, run extraction, radii,
verification, and counterexample commands, and emit JSON/CSV reports.

Exit codes: 0 success / property holds, 1 property fails (a legitimate
negative result), 2 inconclusive (e.g. boundary escape), 3 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import (GeometryError, Inconclusive, InvalidParams, PreconditionViolated,
                     UnknownEntry)
from .extractor import FrameContext, extract
from .radius import KIND_C0, KIND_C1, max_radius
from .theorems import (analyze_counterexample, certify_du_bound, check_distance_bound,
                       check_enlargement, check_inclusion, verify_main_theorem)
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


class _Field(NamedTuple):
    flag: str
    type: type
    help: str = None
    choices: tuple = None


# Every config key: its flag and the type of its value, by flag or in --config.
_FIELDS = {
    "config": _Field("--config", str, "JSON config file; flags override its fields"),
    "out": _Field("--out", str, "output path (JSON or CSV per command)"),
    "quiet": _Field("--quiet", bool),
    "immersion": _Field("--immersion", str, "zoo entry name"),
    "kind": _Field("--kind", str, choices=("c0", "c1")),
    "lam": _Field("--lambda", float),
    "q": _Field("--q", str, "base coords, comma separated"),
    "chart": _Field("--chart", int),
    "r": _Field("--r", float),
    "rho": _Field("--rho", float),
    "cell": _Field("--h", float),
    "tol": _Field("--tol", float),
    "grid": _Field("--grid", int),
    "samples": _Field("--samples", int, "sampler points per chart axis"),
    "eps": _Field("--eps", float),
    "delta": _Field("--delta", float),
    "angles": _Field("--angles", int),
}

_STATEMENTS = ("theorem", "enlargement", "distance", "inclusion", "du-cert")

# The keys each command and each verify statement reads, besides --config,
# --out and --quiet; a command that reads an immersion takes every zoo
# parameter too.  verify takes the keys of all its statements and refuses,
# by flag or in --config, one its statement does not read.
_READS = {
    "zoo": (),
    "extract": ("immersion", "q", "chart", "r", "grid", "cell"),
    "radii": ("immersion", "kind", "lam", "tol", "grid", "samples"),
    "counterexample": ("eps", "delta", "r", "angles"),
    "theorem": ("immersion", "lam", "samples", "tol", "grid"),
    "enlargement": ("immersion", "lam", "r", "samples", "tol", "grid"),
    # tol only brackets the default base radius
    "enlargement --r": ("immersion", "lam", "r", "samples", "grid"),
    "distance": ("immersion", "lam", "r", "rho", "q", "chart", "grid"),
    "inclusion": ("immersion", "lam", "r", "q", "chart"),
    "du-cert": ("immersion", "lam", "r", "q", "chart", "grid"),
}
_READS["verify"] = tuple(dict.fromkeys(key for s in _STATEMENTS for key in _READS[s]))
_POSITIONALS = {"zoo": {"action": ("list",)}, "verify": {"statement": _STATEMENTS}}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Argument errors mapped onto the invalid-input exit code."""


def build_parser() -> _Parser:
    parser = _Parser(prog="tangentgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, choices in _POSITIONALS.get(command, {}).items():
            p.add_argument(name, choices=choices)
        for key in _READS[command] + ("config", "out", "quiet"):
            flag, typ, help_text, choices = _FIELDS[key]
            kwargs = {"action": "store_true"} if typ is bool else {"type": typ, "choices": choices}
            p.add_argument(flag, dest=key, default=None, help=help_text, **kwargs)
            if key == "immersion":
                for name, typ in _ENTRY_FLAGS.items():
                    p.add_argument(f"--{name.replace('_', '-')}", type=typ,
                                   dest=f"param_{name}")
    return parser


def _typed(key, value, typ):
    """A config value as its flag's type, or InvalidParams: an int field takes
    whole numbers only, and no number field takes a boolean."""
    if typ in (str, bool):
        ok = isinstance(value, typ)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and (
            typ is float or isinstance(value, int) or value.is_integer())
    if ok:
        with contextlib.suppress(OverflowError):  # an int too large for a float
            return typ(value)
    wanted = {str: "a string", bool: "true or false", int: "a whole number"}.get(typ, "a number")
    raise InvalidParams(f"config field {key!r} must be {wanted}, got {json.dumps(value)}")


def _merge_config(args) -> dict:
    """Known-field config dict from file, typed like the flags, plus flag overrides."""
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise InvalidParams(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InvalidParams("config file must hold a JSON object")
        keys = _READS[args.command] + ("out", "quiet")
        for key, value in loaded.items():
            if key == "params" and "immersion" in keys:
                if not isinstance(value, dict):
                    raise InvalidParams("config field 'params' must be an object")
                cfg[key] = {name: _typed(f"params.{name}", v, _ENTRY_FLAGS[name])
                            if name in _ENTRY_FLAGS else v for name, v in value.items()}
            elif key in keys:
                cfg[key] = _typed(key, value, _FIELDS[key].type)
            else:
                raise InvalidParams(f"unknown config field {key!r}")
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        if key.startswith("param_"):
            cfg.setdefault("params", {})[key[len("param_"):]] = value
        else:
            cfg[key] = value
    return cfg


def _required(cfg, key, message, choices=None):
    """cfg[key], refused with message when unset (or not among choices)."""
    value = cfg.get(key)
    if value is None or value == "" or (choices is not None and value not in choices):
        raise InvalidParams(message)
    return value


def _given(cfg, key, keyword=None) -> dict:
    """{keyword: cfg[key]} when the field is set, else {}: an unset field
    falls to the library's own default."""
    return {keyword or key: cfg[key]} if key in cfg else {}


def _build_immersion(cfg):
    name = _required(cfg, "immersion", "an --immersion entry name is required")
    return zoo_build(name, cfg.get("params", {}))


def _parse_q(cfg, immersion) -> ParamPoint:
    coords = [float(v) for v in cfg.get("q", "0").split(",") if v != ""]
    if len(coords) == 1 and immersion.m > 1:
        coords = coords * immersion.m
    if len(coords) != immersion.m:
        raise InvalidParams(f"base point needs {immersion.m} coordinates, got {len(coords)}")
    chart = cfg.get("chart", 4 if immersion.name == "sphere2" else 0)
    return immersion.point(chart, np.array(coords))


def _sample(cfg, immersion) -> list:
    per_axis = cfg.get("samples", 8)
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
    _emit(cfg, {"entries": sorted(ZOO)})
    return EXIT_OK


def _cmd_extract(cfg) -> int:
    immersion = _build_immersion(cfg)
    r = _required(cfg, "r", "extract requires --r")
    q = _parse_q(cfg, immersion)
    ctx = FrameContext.at(immersion, q, r)
    sample = extract(ctx, cfg.get("grid", 256), cfg.get("cell"))
    out = cfg.get("out") or "graph_sample.csv"
    sample.to_csv(out)
    if not cfg.get("quiet", False):
        print(json.dumps({"written": out, "status_counts": sample.status_counts(),
                          "cell_size": sample.region_h}))
    return EXIT_OK


def _cmd_radii(cfg) -> int:
    immersion = _build_immersion(cfg)
    kind = _required(cfg, "kind", "radii requires --kind c0|c1", _FIELDS["kind"].choices)
    lam = _required(cfg, "lam", "radii requires --lambda")
    Q = _sample(cfg, immersion)
    report = max_radius(immersion, lam, KIND_C0 if kind == "c0" else KIND_C1, Q,
                        N=cfg.get("grid"), **_given(cfg, "tol"))
    _emit(cfg, report.to_dict())
    return EXIT_OK


def _cmd_verify(cfg) -> int:
    immersion = _build_immersion(cfg)
    statement = cfg["statement"]
    lam = _required(cfg, "lam", "verify requires --lambda")
    grid = cfg.get("grid")
    reads = _READS.get(f"{statement} --r" if "r" in cfg else statement, _READS[statement])
    stray = [_FIELDS[key].flag for key in sorted(set(_READS["verify"]) - set(reads))
             if key in cfg]
    if stray:
        raise InvalidParams(f"verify {statement} does not use {', '.join(stray)}")

    if statement in ("theorem", "enlargement"):
        Q = _sample(cfg, immersion)
    else:
        q = _parse_q(cfg, immersion)
        r = _required(cfg, "r", f"{statement} requires --r")

    if statement == "theorem":
        result = verify_main_theorem(immersion, lam, Q, N=grid, **_given(cfg, "tol")).to_dict()
    elif statement == "enlargement":
        r = cfg.get("r")
        if r is None:
            base = max_radius(immersion, lam, KIND_C1, Q, N=grid, **_given(cfg, "tol"))
            if base.status != "bracketed":
                raise Inconclusive(f"no usable base radius ({base.status})")
            r = 0.9 * base.r_lo
        result = {"holds": check_enlargement(immersion, r, lam, Q, N=grid), "r": r, "lambda": lam}
    elif statement == "distance":
        rho = cfg.get("rho", r)
        result = {"holds": check_distance_bound(immersion, q, rho, r, lam, N=grid),
                  "r": r, "rho": rho, "lambda": lam}
    elif statement == "inclusion":
        result = {"holds": check_inclusion(immersion, q, r, lam), "r": r, "lambda": lam}
    else:  # du-cert
        result = certify_du_bound(immersion, q, r, lam, N=grid).to_dict()
        result["holds"] = result["max_actual"] <= result["global_bound"]
    _emit(cfg, result)
    return EXIT_OK if result["holds"] else EXIT_FAIL


def _cmd_counterexample(cfg) -> int:
    eps, delta, r = (_required(cfg, key, f"counterexample requires --{key}")
                     for key in ("eps", "delta", "r"))
    report = analyze_counterexample(eps, delta, r, **_given(cfg, "angles", "angle_grid"))
    _emit(cfg, report.to_dict())
    return EXIT_OK if report.verdict else EXIT_FAIL


# Each command's function and help line.
_COMMANDS = {
    "zoo": (_cmd_zoo, "list built-in immersions"),
    "extract": (_cmd_extract, "graph sample over one base point"),
    "radii": (_cmd_radii, "maximal-radius report"),
    "verify": (_cmd_verify, "check a statement numerically"),
    "counterexample": (_cmd_counterexample, "free-line graph analysis"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = _merge_config(parser.parse_args(argv))
        return _COMMANDS[cfg["command"]][0](cfg)
    except (SystemExit2, InvalidParams, UnknownEntry, PreconditionViolated,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # an output path that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except GeometryError as exc:  # Inconclusive, ProbeHypothesisFailed, ...
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
