"""Graph-property verdicts over sampled base points and maximal radii.

All verdicts are quantified over the finite sample of base points handed
in by the caller, and every report embeds that sample: a numerical tool
can only certify what it has probed, and says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryEscape, Inconclusive, MonotonicityViolation
from .extractor import (
    FrameContext,
    _extract_on_region,
    component,
    norms,
    second_sheet_present,
)
from .zoo import ParamImmersion, ParamPoint

KIND_C0 = "c0"
KIND_C1 = "c1"

RADIUS_CAP = 1e3


def default_grid(m: int) -> int:
    """Extraction resolution used by property checks unless overridden."""
    return 256 if m == 1 else 64


@dataclass
class Witness:
    """Per-base-point record of one property check."""

    point: ParamPoint
    status: str  # pass | fail | inconclusive
    c0: float = None
    lip: float = None
    detail: str = ""


@dataclass
class PropertyVerdict:
    """Aggregated verdict: holds only if every sampled base point passes."""

    holds: bool
    witnesses: list
    failing_q: ParamPoint = None
    inconclusive: bool = False
    reason: str = ""


def _witness_at(ctx: FrameContext, lam: float, kind: str, N: int) -> Witness:
    """Local property check at the context's base point and radius."""
    q, r, m = ctx.base_point, ctx.radius, ctx.immersion.m
    try:
        region = component(ctx, refine_check=False)
    except BoundaryEscape as exc:
        return Witness(q, "inconclusive", detail=str(exc))
    # A second sheet fails both properties; skip the node solve when the
    # cell scan already proves it (same flagging rule as extraction).
    if second_sheet_present(region, r, N, m):
        return Witness(q, "fail", detail="multi_sheet")
    sample = _extract_on_region(ctx, region, N)
    counts = sample.status_counts()
    if counts["multi_sheet"] or counts["uncovered"]:
        return Witness(
            q,
            "fail",
            detail=f"not a graph: {counts}",
        )
    est = norms(sample)
    if kind == KIND_C1:
        if counts["vertical"]:
            return Witness(q, "fail", est.c0, est.lip, detail="vertical node")
        if est.lip > lam:
            return Witness(
                q, "fail", est.c0, est.lip, detail=f"lip {est.lip:.6g} > {lam:.6g}"
            )
        return Witness(q, "pass", est.c0, est.lip)
    if kind == KIND_C0:
        bound = r * lam
        if est.c0 > bound:
            return Witness(
                q, "fail", est.c0, est.lip, detail=f"c0 {est.c0:.6g} > {bound:.6g}"
            )
        return Witness(q, "pass", est.c0, est.lip)
    raise ValueError(f"unknown property kind {kind!r}")


def _check_property(f, r, lam, Q, kind, N=None) -> PropertyVerdict:
    """Witnesses in sample order, stopping at the first that does not pass."""
    if r <= 0 or lam <= 0:
        raise ValueError("radius and slope bound must be positive")
    N = N or default_grid(f.m)
    witnesses = []
    for q in Q:
        w = _witness_at(FrameContext.at(f, q, r), lam, kind, N)
        witnesses.append(w)
        if w.status != "pass":
            return PropertyVerdict(
                False, witnesses, failing_q=w.point,
                inconclusive=w.status == "inconclusive", reason=w.detail,
            )
    return PropertyVerdict(True, witnesses)


def is_r_lambda(f: ParamImmersion, r: float, lam: float, Q,
                N: int = None) -> PropertyVerdict:
    """Differentiable-graph property: single sheet, no verticals, lip <= lam."""
    return _check_property(f, r, lam, Q, KIND_C1, N)


def is_c0_r_lambda(f: ParamImmersion, r: float, lam: float, Q,
                   N: int = None) -> PropertyVerdict:
    """Continuous-graph property: single covering sheet (verticals allowed),
    heights bounded by r * lam."""
    return _check_property(f, r, lam, Q, KIND_C0, N)


@dataclass
class RadiusReport:
    """Bracketed maximal radius for one property kind at one slope bound.

    ``status`` is "bracketed" for a genuine bracket (r_lo passing, r_hi
    failing), "none_passing" when even the initial probe radius failed
    (r_lo = 0), and "unbounded" when the property still passed at the cap
    radius.
    """

    lam: float
    kind: str
    r_lo: float
    r_hi: float
    status: str
    tol: float
    grid_n: int
    sample_spec: dict
    cap: float = RADIUS_CAP
    probes: int = 0

    @property
    def unbounded(self) -> bool:
        return self.status == "unbounded"

    def midpoint(self) -> float:
        return 0.5 * (self.r_lo + self.r_hi)

    def width(self) -> float:
        if self.status != "bracketed":
            return 0.0
        return self.r_hi - self.r_lo

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "kind": "unbounded" if self.unbounded else self.kind,
            "requested_kind": self.kind,
            "r_lo": self.r_lo,
            "r_hi": self.r_hi,
            "status": self.status,
            "tol": self.tol,
            "grid_n": self.grid_n,
            "cap": self.cap,
            "probes": self.probes,
            "sample_spec": self.sample_spec,
        }


def _sample_spec(f: ParamImmersion, Q) -> dict:
    points = [[int(q.chart)] + [float(v) for v in q.coords] for q in Q]
    spec = dict(f.describe())
    spec["sample_count"] = len(points)
    spec["sample_points"] = points
    return spec


def max_radius(f: ParamImmersion, lam: float, kind: str, Q, tol: float = 1e-3,
               N: int = None) -> RadiusReport:
    """Maximal radius at which the graph property holds on the sample.

    Bisection from a doubling bracket, relying on restriction
    monotonicity (a graph over a ball restricts to a graph over any
    smaller ball).  Monotonicity is additionally spot-checked on a
    five-point radius grid; a violation aborts rather than silently
    bisecting.  Immersions that still pass at the cap radius are reported
    with an unbounded sentinel.
    """
    if not 0 < tol <= 0.1:
        raise ValueError("bisection tolerance must be in (0, 0.1]")
    if kind not in (KIND_C0, KIND_C1):
        raise ValueError(f"unknown property kind {kind!r}")
    N = N or default_grid(f.m)
    Q = list(Q)
    spec = _sample_spec(f, Q)
    probes = 0

    def passes(r: float) -> bool:
        nonlocal probes
        probes += 1
        verdict = _check_property(f, r, lam, Q, kind, N)
        if verdict.inconclusive:
            raise Inconclusive(
                f"property check inconclusive at r={r:.6g}: {verdict.reason}"
            )
        return verdict.holds

    r_init = 1e-6 * f.ambient_bbox_diag()
    if not passes(r_init):
        return RadiusReport(lam, kind, 0.0, r_init, "none_passing", tol, N,
                            spec, probes=probes)

    r_lo, r_hi = r_init, None
    while True:
        if r_lo >= RADIUS_CAP * (1 - 1e-12):
            return RadiusReport(lam, kind, RADIUS_CAP, float("inf"), "unbounded",
                                tol, N, spec, probes=probes)
        r_next = min(2.0 * r_lo, RADIUS_CAP)
        if passes(r_next):
            r_lo = r_next
        else:
            r_hi = r_next
            break

    while r_hi / r_lo - 1.0 > tol:
        mid = 0.5 * (r_lo + r_hi)
        if passes(mid):
            r_lo = mid
        else:
            r_hi = mid

    for rr in np.linspace(0.2, 0.8, 4) * r_lo:
        if not passes(float(rr)):
            raise MonotonicityViolation(
                f"property fails at r={rr:.6g} although it holds at the "
                f"larger radius {r_lo:.6g}; discretization is unsound here"
            )

    return RadiusReport(lam, kind, r_lo, r_hi, "bracketed", tol, N, spec,
                        probes=probes)
