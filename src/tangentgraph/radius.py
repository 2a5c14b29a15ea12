"""Graph-property verdicts over sampled base points and maximal radii.

All verdicts are quantified over the finite sample of base points handed
in by the caller, and every report embeds that sample: a numerical tool
can only certify what it has probed, and says so.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
from dataclasses import asdict, dataclass, field

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


def _grid(N, m: int) -> int:
    """Extraction resolution of the property checks: N, or by default 256
    for curves and 64 otherwise."""
    if N is None:
        return 256 if m == 1 else 64
    if N < 8:
        raise ValueError("grid resolution must be at least 8")
    return N


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


@dataclass(frozen=True)
class _Reading:
    """What a witness reads off its sample, whatever its kind and slope
    bound: the verdict when the graph check already decides it
    ("inconclusive" or "fail"), else the norms and whether a node is
    vertical."""

    status: str = None
    detail: str = ""
    c0: float = None
    lip: float = None
    vertical: bool = False


# (chart, coords, r, N) -> _Reading while _readings_shared() is active
_SHARED = contextvars.ContextVar("tangentgraph_shared_readings", default=None)


@contextlib.contextmanager
def _readings_shared():
    """Within the block, property checks read each base point at each
    radius and grid once, whatever the kind and slope bound they test."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _read_at(ctx: FrameContext, N: int) -> _Reading:
    """The reading at the context's base point and radius, taken from the
    shared readings when they hold it."""
    shared = _SHARED.get()
    if shared is None:
        return _read_once(ctx, N)
    q = ctx.base_point
    key = (q.chart, q.coords.tobytes(), ctx.radius, N)
    if key not in shared:
        shared[key] = _read_once(ctx, N)
    return shared[key]


def _read_once(ctx: FrameContext, N: int) -> _Reading:
    """Component, sheet scan, extraction and norms at the context's base
    point and radius."""
    try:
        region = component(ctx)
    except BoundaryEscape as exc:
        return _Reading("inconclusive", str(exc))
    # A second sheet fails both properties; skip the node solve when the
    # cell scan already proves it (same flagging rule as extraction).
    if second_sheet_present(region, ctx.radius, N, ctx.immersion.m):
        return _Reading("fail", "multi_sheet")
    sample = _extract_on_region(ctx, region, N)
    counts = sample.status_counts()
    if counts["multi_sheet"] or counts["uncovered"]:
        return _Reading("fail", f"not a graph: {counts}")
    est = norms(sample)
    return _Reading(c0=est.c0, lip=est.lip, vertical=counts["vertical"] > 0)


def _witness_at(ctx: FrameContext, lam: float, kind: str, N: int) -> Witness:
    """Local property check at the context's base point and radius."""
    q, r = ctx.base_point, ctx.radius
    if not lam > 0:
        raise ValueError("slope bound must be positive")
    if kind not in (KIND_C0, KIND_C1):
        raise ValueError(f"unknown property kind {kind!r}")
    est = _read_at(ctx, N)
    if est.status is not None:
        return Witness(q, est.status, detail=est.detail)
    if kind == KIND_C1:
        if est.vertical:
            return Witness(q, "fail", est.c0, est.lip, detail="vertical node")
        if est.lip > lam:
            return Witness(
                q, "fail", est.c0, est.lip, detail=f"lip {est.lip:.6g} > {lam:.6g}"
            )
        return Witness(q, "pass", est.c0, est.lip)
    bound = r * lam
    if est.c0 > bound:
        return Witness(
            q, "fail", est.c0, est.lip, detail=f"c0 {est.c0:.6g} > {bound:.6g}"
        )
    return Witness(q, "pass", est.c0, est.lip)


def _check_property(f, r, lam, Q, kind, N=None, frames=None) -> PropertyVerdict:
    """Witnesses in sample order, stopping at the first that does not pass;
    frames, when given, keeps each base point's FrameContext for any radius."""
    if not (r > 0 and lam > 0):
        raise ValueError("radius and slope bound must be positive")
    Q = list(Q)
    if not Q:
        raise ValueError("the sample of base points is empty")
    N = _grid(N, f.m)
    frames = {} if frames is None else frames
    witnesses = []
    for q in Q:
        key = (q.chart, q.coords.tobytes())
        if key not in frames:
            frames[key] = FrameContext.at(f, q, r)
        w = _witness_at(frames[key].with_radius(r), lam, kind, N)
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
    radius.  ``trace`` holds one (r, holds, q_index, detail) per probe, in
    probe order: q_index is the position in the sample of the base point
    that failed (None for a passing probe) and detail the check it failed.
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
    trace: list = field(default_factory=list)

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
        out = asdict(self)
        out["lambda"], out["requested_kind"] = out.pop("lam"), self.kind
        out["kind"] = "unbounded" if self.unbounded else self.kind
        return out


def _sample_spec(f: ParamImmersion, Q) -> dict:
    points = [[int(q.chart)] + [float(v) for v in q.coords] for q in Q]
    spec = dict(f.describe())
    spec["sample_count"] = len(points)
    spec["sample_points"] = points
    return spec


def _measure(verdict: PropertyVerdict, kind: str, r: float, lam: float):
    """Scaled size of a probe, <= 1 where the property holds: lip / lam or
    c0 / (r lam), the largest over a passing probe's witnesses, else the
    failing witness's.  None when the probe has no such number."""
    ws = verdict.witnesses if verdict.holds else verdict.witnesses[-1:]
    vals = [w.lip if kind == KIND_C1 else w.c0 for w in ws]
    if not vals or any(v is None or not np.isfinite(v) for v in vals):
        return None
    return max(vals) / (lam if kind == KIND_C1 else r * lam)


def max_radius(f: ParamImmersion, lam: float, kind: str, Q, tol: float = 1e-3,
               N: int = None) -> RadiusReport:
    """Maximal radius at which the graph property holds on the sample.

    The bracket is the cell of a fixed search tree: a doubling ladder
    ``r_init * 2**j`` up to the cap, then bisection of the ladder cell
    until ``r_hi / r_lo - 1 <= tol``.  Restriction monotonicity (a graph
    over a ball restricts to a graph over any smaller ball) decides every
    rung and tree midpoint at or below a passing probe, or at or above a
    failing one.  The rest are guessed from the threshold predicted by
    the probes' measured lip or c0 (a secant, or proportional to r), and
    the guessed leaf's endpoints are confirmed by real probes.  After a
    failure with no measure (a second sheet, a vertical or uncovered node)
    the ladder climbs from the largest pass, as doubling does.  The tree
    takes a plain bisection step instead of a guess when there is no
    prediction, when it lies outside the gap between the largest pass and
    the smallest fail, or when the last round did not halve that gap.
    Guesses only choose what to probe, so the bracket equals plain
    bisection's.  Monotonicity is spot-checked at four radii below r_lo;
    a violation aborts.  The base point that failed last is checked
    first.  Immersions that still pass at the cap radius are reported
    with an unbounded sentinel.
    """
    if not 0 < tol <= 0.1:
        raise ValueError("bisection tolerance must be in (0, 0.1]")
    if kind not in (KIND_C0, KIND_C1):
        raise ValueError(f"unknown property kind {kind!r}")
    N = _grid(N, f.m)
    Q = list(Q)
    spec = _sample_spec(f, Q)
    order = list(range(len(Q)))  # checking order; the last failure first
    passed, failed, trace = {}, {}, []  # passed/failed: radius -> measure
    frames = {}  # one FrameContext per base point, built at its first probe

    def passes(r: float) -> bool:
        verdict = _check_property(f, r, lam, [Q[i] for i in order], kind, N, frames)
        if verdict.inconclusive:
            raise Inconclusive(
                f"property check inconclusive at r={r:.6g}: {verdict.reason}"
            )
        q_index = None
        if not verdict.holds and verdict.witnesses:
            q_index = order.pop(len(verdict.witnesses) - 1)
            order.insert(0, q_index)
        trace.append((r, verdict.holds, q_index, verdict.reason))
        (passed if verdict.holds else failed)[r] = _measure(verdict, kind, r,
                                                            lam)
        return verdict.holds

    def predict():
        lo, hi = max(passed), min(failed, default=None)
        g_lo, g_hi = passed[lo], failed.get(hi)
        if g_lo is not None and g_hi is not None and g_hi > g_lo:
            return lo + (1.0 - g_lo) * (hi - lo) / (g_hi - g_lo)
        if g_lo is not None:
            return lo / g_lo if g_lo else float("inf")
        return hi / g_hi if g_hi else None

    def report(r_lo, r_hi, status):
        return RadiusReport(lam, kind, r_lo, r_hi, status, tol, N, spec,
                            probes=len(trace), trace=trace)

    r_init = 1e-6 * f.ambient_bbox_diag()
    if not passes(r_init):
        return report(0.0, r_init, "none_passing")

    rungs = [r_init]
    while rungs[-1] < RADIUS_CAP * (1 - 1e-12):
        rungs.append(min(2.0 * rungs[-1], RADIUS_CAP))
    lo, hi = 0, len(rungs)  # highest passing, lowest failing rung
    while hi - lo > 1:  # the rung at or below the prediction, else gallop
        t = predict()
        k = 1 if t is None else bisect.bisect_right(rungs, t) - 1
        if hi < len(rungs) and failed[rungs[hi]] is None:
            k = lo + 1  # no measure places this failure: climb, as doubling
        k = min(max(k, lo + 1), hi - 1)
        if passes(rungs[k]):
            lo = k
        else:
            hi = k
    if hi == len(rungs):
        return report(RADIUS_CAP, float("inf"), "unbounded")

    plain = False
    while True:
        p, q = max(passed), min(failed)
        r_lo, r_hi = rungs[lo], rungs[hi]
        while r_hi / r_lo - 1.0 > tol:  # descend as far as probes decide
            mid = 0.5 * (r_lo + r_hi)
            if p < mid < q:
                break
            r_lo, r_hi = (mid, r_hi) if mid <= p else (r_lo, mid)
        else:
            break  # a leaf: r_lo passed and r_hi failed
        t = None if plain else predict()
        if t is None or not p < t < q:
            passes(mid)
        else:
            while r_hi / r_lo - 1.0 > tol:  # descend on the prediction
                mid = 0.5 * (r_lo + r_hi)
                r_lo, r_hi = (mid, r_hi) if mid <= t else (r_lo, mid)
            for r in sorted((r_lo, r_hi), key=lambda r: abs(r - t)):
                if max(passed) < r < min(failed):
                    passes(r)
        plain = min(failed) - max(passed) > 0.5 * (q - p)

    for rr in np.linspace(0.2, 0.8, 4) * r_lo:
        if not passes(float(rr)):
            raise MonotonicityViolation(
                f"property fails at r={rr:.6g} although it holds at the "
                f"larger radius {r_lo:.6g}; discretization is unsound here"
            )
    return report(r_lo, r_hi, "bracketed")
