"""Numerical checks of the regularity statements and the counterexample.

The centerpiece: a small enough height bound on all local graphs forces a
small slope bound, with the explicit threshold 1e-5 / m^2.  This module
measures both maximal radii and compares them bracket-aware, checks the
radius-enlargement and component-inclusion statements, replays the
probe-point construction as a derivative-bound certifier, and analyzes
the steep-wiggle counterexample for graphs over freely chosen lines.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (Inconclusive, InvalidParams, PreconditionViolated,
                     ProbeHypothesisFailed, RankDeficient)
# _extract_on_region, _solve_batch, norms and tangent_space: the benchmark
# traces them here.
from .extractor import (  # noqa: F401
    FrameContext,
    _extract_on_region,
    _per_chart,
    _solve_batch,
    _solve_nodes,
    _write_csv,
    component,
    norms,
)
from .geometry import (Subspace, _grid_rows, _orthonormalize_batch, _singular_extremes,
                       _stack_entries, graph_matrix_from_probes, product_columns, row_norm)
from .radius import (
    KIND_C0,
    KIND_C1,
    RadiusReport,
    _grid,
    _readings_shared,
    _witness_at,
    is_r_lambda,
    max_radius,
)
from .zoo import RANK_TOL, ParamImmersion, ParamPoint, tangent_space  # noqa: F401


INCLUSION_POINTS = 12  # sampled points whose components must contain q's


def lambda_cap(m: int) -> float:
    """Height-bound threshold below which the regularity statement applies."""
    if m < 1:
        raise ValueError("intrinsic dimension must be at least 1")
    return 1e-5 / (m * m)


def _height_cap(m: int, lam: float) -> float:
    """lambda_cap(m), refused (PreconditionViolated) when lam exceeds it."""
    cap = lambda_cap(m)
    if lam > cap * (1 + 1e-12):
        raise PreconditionViolated(f"height bound {lam:.3e} exceeds the threshold {cap:.3e}")
    return cap


@dataclass
class TheoremVerdict:
    """Bracket-aware comparison of the two maximal radii."""

    lam: float
    cap: float
    r0: RadiusReport
    r1_scaled: RadiusReport
    margin: float
    holds: bool

    def to_dict(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        out["r0"], out["r1_scaled"] = self.r0.to_dict(), self.r1_scaled.to_dict()
        return out


def verify_main_theorem(f: ParamImmersion, lam: float, Q, tol: float = 1e-3,
                        N: int = None) -> TheoremVerdict:
    """Measure r0 at the height bound and r1 at the lifted slope bound.

    Holds when the scaled slope radius reaches the height radius up to the
    combined bracket widths.  Unbounded sentinels compare as infinite.  A
    none_passing radius is known only to lie below its r_hi: the verdict
    holds when r0.r_hi <= r1.r_lo and is otherwise Inconclusive.
    """
    cap = _height_cap(f.m, lam)
    with _readings_shared():  # both ladders start at the same radius
        r0 = max_radius(f, lam, KIND_C0, Q, tol=tol, N=N)
        r1 = max_radius(f, lam / cap, KIND_C1, Q, tol=tol, N=N)
    if r1.unbounded:
        margin = float("inf")
        holds = True
    elif r0.unbounded:
        margin = float("-inf")
        holds = False
    elif "none_passing" in (r0.status, r1.status):
        if r0.r_hi > r1.r_lo:
            names = [n for n, rep in (("r0", r0), ("r1", r1)) if rep.status == "none_passing"]
            raise Inconclusive(f"{' and '.join(names)} none_passing: the property fails at the "
                               f"initial radius {min(r0.r_hi, r1.r_hi):.6g}, so the radius "
                               "was not measured")
        margin, holds = r1.r_lo - r0.r_hi, True
    else:
        margin = r1.r_lo - r0.r_hi
        holds = margin >= -(r0.width() + r1.width())
    return TheoremVerdict(lam, cap, r0, r1, margin, holds)


def check_enlargement(f: ParamImmersion, r: float, lam: float, Q,
                      N: int = None) -> bool:
    """Graph property at (r, lam) lifts to (7r/4, 8 sqrt(m) lam).

    Requires lam <= 1 / (8 sqrt(m)) and the base property to hold; both
    are verified and a failure raises PreconditionViolated.
    """
    bound = 1.0 / (8.0 * math.sqrt(f.m))
    if lam > bound * (1 + 1e-12):
        raise PreconditionViolated(
            f"slope bound {lam:.6g} exceeds 1/(8 sqrt(m)) = {bound:.6g}"
        )
    base = is_r_lambda(f, r, lam, Q, N=N)
    if base.inconclusive:
        raise Inconclusive(base.reason)
    if not base.holds:
        raise PreconditionViolated(
            f"hypothesis fails: no ({r:.6g}, {lam:.6g}) graph property "
            f"({base.reason})"
        )
    lifted = is_r_lambda(f, 1.75 * r, 8.0 * math.sqrt(f.m) * lam, Q, N=N)
    if lifted.inconclusive:
        raise Inconclusive(lifted.reason)
    return lifted.holds


def _require(ctx: FrameContext, lam: float, kind: str, N: int = None) -> None:
    """Refuse unless the property of the given kind holds at the base point."""
    w = _witness_at(ctx, lam, kind, _grid(N, ctx.immersion.m))
    if w.status == "inconclusive":
        raise Inconclusive(w.detail)
    if w.status == "fail":
        raise PreconditionViolated(
            f"no ({ctx.radius:.6g}, {lam:.6g}) {kind} graph at the base "
            f"point: {w.detail}"
        )


def _subsample(n: int, count: int) -> np.ndarray:
    """Indices of count evenly spaced rows out of n, or all n rows."""
    if n <= count:
        return np.arange(n)
    return (np.arange(count) * (n / count)).astype(np.int64)


def check_distance_bound(f: ParamImmersion, q: ParamPoint, rho: float,
                         r: float, lam: float, N: int = None) -> bool:
    """Points of the rho-component stay within rho + r*lam of the base image.

    Every cell center of the component is checked.  Grid slack of one cell
    image (the region's largest sigma_max(J diag(cell size))) is allowed on
    top of the stated bound, since the checked points are cell centers.
    """
    if not 0 < rho <= r:
        raise ValueError("need 0 < rho <= r")
    ctx = FrameContext.at(f, q, r)
    _require(ctx, lam, KIND_C0, N)
    region = component(ctx.with_radius(rho))
    bound = rho + r * lam + region.scale_max  # slack: the widest cell image
    image = _per_chart(f.eval_chart, region.cells("chart"), region.cells("center"))
    return not (row_norm(image - f.eval(q)) >= bound).any()


def check_inclusion(f: ParamImmersion, q: ParamPoint, r: float, lam: float) -> bool:
    """The (2r/5)-component of q sits inside the r-components of 12 sampled
    points of it (INCLUSION_POINTS cell centers, evenly spaced in row
    order), compared cell-by-cell on a shared parameter grid: each point's
    component is flooded on q's per-axis cell sizes.

    Requires lam <= 1/10 and the (r, lam) graph property at q; both are
    verified and a failure raises PreconditionViolated.  Membership
    tolerates a one-cell halo: q's cells are compared through their
    centers.
    """
    if lam > 0.1 * (1 + 1e-12):
        raise PreconditionViolated(f"slope bound {lam:.6g} exceeds 1/10")
    ctx = FrameContext.at(f, q, r)
    _require(ctx, lam, KIND_C1)
    region_q = component(ctx.with_radius(0.4 * r))
    charts, centers = region_q.cells("chart"), region_q.cells("center")
    for i in _subsample(len(centers), INCLUSION_POINTS):
        ctx_p = FrameContext.at(f, ParamPoint(int(charts[i]), centers[i]), r)
        region_p = component(ctx_p, region_q.h_axes)
        if not _per_chart(region_p.contains, charts, centers).all():
            return False
    return True


@dataclass
class CertifiedDuBound:
    """Per-node certified slope bounds from the probe-point construction.

    A node's certified bound is the slope norm of its tangent plane, read
    off only after the probe hypothesis has passed there; ``actual_lip``
    is that same slope norm.
    """

    rho: float
    per_node: list  # (x, certified_bound, actual_lip)
    global_bound: float

    def max_actual(self) -> float:
        return max(a for _, _, a in self.per_node)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "global_bound": self.global_bound,
            "nodes": len(self.per_node),
            "max_certified": max(c for _, c, _ in self.per_node),
            "max_actual": self.max_actual(),
        }

    def to_csv(self, path):
        m = len(self.per_node[0][0])
        _write_csv(path, [f"x{i + 1}" for i in range(m)] + ["certified_bound", "actual_lip"],
                  ([*x, cert, act] for x, cert, act in self.per_node))


def certify_du_bound(f: ParamImmersion, q: ParamPoint, r: float, lam: float,
                     nodes_per_rho: int = 4, N: int = None) -> CertifiedDuBound:
    """Certify the slope bound on the fifth-radius ball via probe points.

    For each grid point x of the inner ball, the parameters under x and
    under the axis-shifted points x + rho e_j are located by one Newton
    batch over their nodes, seeded from the region's cells as extraction
    solves its grid; a node it cannot reach raises PreconditionViolated
    naming the node.  The tangent planes at
    all nodes are computed, checked and sloped in one batch (a nearly
    rank-deficient Jacobian raises RankDeficient naming the node), the
    shifted images are projected orthogonally onto the affine tangent
    plane at the point under x, and the normalized projections feed the
    per-node probe-point certificate with L = 8^-3 m^-1.5 lam / cap.  All
    computations happen in the base-point frame.  The certified value at a
    node is the slope norm of its plane once its probes have passed.  The
    certificate must succeed at every node when lam is below the threshold;
    a failed probe hypothesis is reported with its node and axis.
    nodes_per_rho must be a whole number of at least 2 (ValueError).
    """
    m = f.m
    cap = _height_cap(m, lam)
    s = nodes_per_rho
    if not (isinstance(s, numbers.Real) and float(s).is_integer() and s >= 2):
        raise ValueError(f"need a whole number of at least 2 nodes per rho, got {s!r}")
    s = int(s)
    ctx = FrameContext.at(f, q, r)
    _require(ctx, lam, KIND_C0, N)

    rho = r / 5.0
    delta = rho / s
    rho_eff = s * delta
    bound_l = (8.0 ** -3) * m ** -1.5 * lam / cap

    # Integer node lattice: base nodes inside B_rho plus their axis shifts.
    base_idx = _grid_rows([np.arange(-(s - 1), s)] * m)
    base_idx = base_idx[row_norm(base_idx * delta) < rho]
    shifts = (s * np.eye(m, dtype=int))[None, :, :]
    probe_idx = (base_idx[:, None, :] + shifts).reshape(-1, m)
    all_idx, where = np.unique(np.concatenate([base_idx, probe_idx]), axis=0, return_inverse=True)
    base_rows, probe_rows = where[:len(base_idx)], where[len(base_idx):].reshape(-1, m)

    ctx2 = ctx.with_radius(2.2 * rho)
    solved, p_chart, p_coords, frame = _solve_nodes(ctx2, component(ctx2), all_idx * delta)
    if not solved.all():
        raise PreconditionViolated(
            f"could not locate the parameter under node {all_idx[~solved][0] * delta}"
        )

    # Tangent planes at every base node at once, rotated into the frame.
    jac = _per_chart(f.jacobian_chart, p_chart[base_rows], p_coords[base_rows])
    low = np.nonzero(_singular_extremes(jac)[1] <= RANK_TOL)[0]
    if len(low):
        raise RankDeficient(
            f"Jacobian nearly rank-deficient under node {base_idx[low[0]] * delta}")
    framed = _stack_entries(product_columns(ctx.iso.rotation.T, _orthonormalize_batch(jac)))
    # Orthogonal projections of the shifted images onto each plane.
    shift = frame[probe_rows] - frame[base_rows][:, None, :]
    coef = np.einsum("bnl,bjn->bjl", framed, shift)
    probes = np.einsum("bnl,bjl->bjn", framed, coef) / rho_eff

    planes = Subspace.stack(framed)
    per_node = []
    for i, x in enumerate(base_idx * delta):
        try:
            cert = graph_matrix_from_probes(planes[i], probes[i], bound_l)
        except PreconditionViolated as exc:
            raise ProbeHypothesisFailed(
                node=x, probe_index=exc.index,
                message=f"probe hypothesis failed at x={x}: {exc}",
            ) from exc
        per_node.append((x, cert.norm, cert.norm))

    return CertifiedDuBound(rho=rho_eff, per_node=per_node,
                            global_bound=bound_l)


def iteration_constant_check() -> bool:
    """Arithmetic of the three-step radius enlargement pipeline.

    Three enlargements scale the radius by (7/4)^3 > 5 and the slope by
    (8 sqrt(m))^3, which exactly cancels the certified starting slope
    8^-3 m^-1.5, so a fifth-radius certificate lifts to the full radius.
    """
    ratio = (7.0 / 4.0) ** 3
    ok = ratio == 5.359375 and ratio > 5.0
    ok = ok and ratio / 5.0 >= 1.0
    for m in (1, 2, 3, 10):
        root = math.sqrt(m)
        lift = (8.0 * root) ** 3 * 8.0 ** -3 * m ** -1.5
        ok = ok and abs(lift - 1.0) <= 1e-12
        start = 8.0 ** -3 * m ** -1.5  # slope certificate at the threshold
        for step in range(3):
            slope = start * (8.0 * root) ** step
            ok = ok and slope <= 1.0 / (8.0 * root) * (1 + 1e-12)
    return bool(ok)


@dataclass
class CounterexampleReport:
    """Outcome of the free-line graph analysis of the steep wiggle curve."""

    epsilon: float
    delta: float
    r: float
    lambda_gen: float
    min_over_angles_max_slope: float
    verdict: bool
    angle_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def analyze_counterexample(eps: float, delta: float, r: float,
                           angle_grid: int = 4096) -> CounterexampleReport:
    """Height-small wiggle curve: graphs over freely chosen lines stay steep.

    Over the horizontal line through any sampled point, the curve is a
    graph with heights at most 2 eps, so the generalized height constant
    is about 2 eps / r.  Sweeping all line angles, every angle admitting a
    graph at all forces a maximal slope of at least the horizontal value
    2 pi eps / delta.  The counterexample is demonstrated when the height
    constant is below the threshold while no line achieves a slope within
    the lifted budget.

    Slope and fold structure are periodic in the parameter, so one finely
    sampled period decides each angle (the window spans many periods).
    """
    if not (eps >= 0 and delta > 0 and r > 0):
        raise InvalidParams("need eps >= 0, delta > 0, r > 0")
    if delta > r / 100.0:
        raise InvalidParams("the oscillation period must be well below r")
    if angle_grid < 8:
        raise InvalidParams("angle grid too coarse")

    crest = delta / 4.0
    omega = 2.0 * math.pi / delta
    steep = eps * omega

    # Generalized height constant over horizontal lines, sampled q's in one
    # period around the crest, offsets sampled over one period (r >> delta);
    # the curve's height is eps sin(omega t).
    qs = crest + delta * np.linspace(-0.5, 0.5, 65)
    offs = delta * np.arange(256) / 256.0
    gaps = eps * np.sin(omega * (qs[:, None] + offs)) - eps * np.sin(omega * qs)[:, None]
    lambda_gen = float(np.abs(gaps).max() / r)

    # Angle sweep; always include the horizontal line itself.
    base_angles = np.linspace(-math.pi / 2, math.pi / 2, angle_grid + 2)[1:-1]
    angles = np.union1d(base_angles, [0.0])
    phases = crest + delta * np.arange(2048) / 2048.0
    hp = steep * np.cos(omega * phases) if eps > 0 else np.zeros_like(phases)

    min_max_slope = float("inf")
    chunk = 512
    for start in range(0, len(angles), chunk):
        tan = np.tan(angles[start:start + chunk])[:, None]
        denom = 1.0 + tan * hp[None, :]
        graph_ok = (denom > 0).all(axis=1)
        if not graph_ok.any():
            continue
        numer = np.abs(hp[None, :] - tan[graph_ok])
        max_slope = (numer / denom[graph_ok]).max(axis=1)
        min_max_slope = min(min_max_slope, float(max_slope.min()))

    cap = lambda_cap(1)
    verdict = bool(
        lambda_gen <= cap * (1 + 1e-9)
        and min_max_slope > lambda_gen / cap
    )
    return CounterexampleReport(
        epsilon=eps,
        delta=delta,
        r=r,
        lambda_gen=lambda_gen,
        min_over_angles_max_slope=min_max_slope,
        verdict=verdict,
        angle_count=len(angles),
    )
