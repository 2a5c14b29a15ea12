"""Component computation and graph-function extraction in a tangent frame.

Pipeline: pick a base point and an admissible isometry, flood-fill the
connected parameter-space component whose frame projection stays inside
the ball of the working radius, then solve for the graph heights on a
regular grid by continuation outward from the center.  Derivatives come
from the exact tangent space at each solved parameter, not from height
differencing.

All heavy steps are vectorized over grid nodes and cells.  The component
is stored per chart as a sorted array of packed cell keys, so membership
tests and the flood's visited set are binary searches.
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryEscape,
    GeometryError,
    LeftRegion,
    NoConvergence,
    NotAGraph,
)
from .geometry import Isometry, is_admissible, make_admissible_isometry
from .zoo import ParamImmersion, ParamPoint, tangent_space

STATUS_OK = 0
STATUS_VERTICAL = 1
STATUS_MULTI_SHEET = 2
STATUS_UNCOVERED = 3
STATUS_NAMES = ("ok", "vertical", "multi_sheet", "uncovered")

VERTICAL_RANK_TOL = 1e-9
CELL_BUDGET = 5_000_000

NEWTON_MAX_ITER = 100

_SOLVE_OK = 0
_SOLVE_NO_CONV = 1
_SOLVE_LEFT = 2


@dataclass
class FrameContext:
    """An immersion, a base point, an admissible frame there, and a radius."""

    immersion: ParamImmersion
    base_point: ParamPoint
    iso: Isometry
    radius: float

    @classmethod
    def at(cls, immersion: ParamImmersion, q: ParamPoint, r: float,
           iso: Isometry = None) -> "FrameContext":
        """Context with the canonical admissible isometry unless one is given."""
        if r <= 0:
            raise ValueError("radius must be positive")
        plane = tangent_space(immersion, q)
        base = immersion.eval(q)
        if iso is None:
            iso = make_admissible_isometry(base, plane)
        elif not is_admissible(iso, base, plane):
            raise ValueError("provided isometry is not admissible at the base point")
        return cls(immersion, q, iso, float(r))

    def frame_coords(self, chart: int, coords) -> np.ndarray:
        """Ambient points of a chart batch expressed in the base frame."""
        return self.iso.inverse_apply(self.immersion.eval_chart(chart, coords))


@dataclass
class _CellBlock:
    idx: np.ndarray      # (C, m) int64 cell indices
    center: np.ndarray   # (C, m) parameter-space centers
    x: np.ndarray        # (C, m) frame projections of the centers
    u: np.ndarray        # (C, k) frame heights of the centers
    sigma: np.ndarray    # (C,) largest Jacobian singular value at the centers


def _cell_index(chart, size, coords) -> np.ndarray:
    """Integer cell of each row of parameter coords, periodic axes unwrapped."""
    return np.floor((np.atleast_2d(coords) - chart.lo) / size).astype(np.int64)


def _pack_keys(idx: np.ndarray, counts: np.ndarray, periodic) -> np.ndarray:
    """Mixed-radix int64 key per cell index row, periodic axes wrapped;
    -1 for rows outside the chart's cell range."""
    key = np.zeros(len(idx), dtype=np.int64)
    valid = np.ones(len(idx), dtype=bool)
    for d in range(idx.shape[1]):
        col = idx[:, d]
        if periodic[d]:
            col = np.mod(col, counts[d])
        else:
            valid &= (col >= 0) & (col < counts[d])
        key = key * np.int64(counts[d]) + col
    key[~valid] = -1
    return key


def _in_sorted(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Which probe keys occur in the sorted key array."""
    pos = np.searchsorted(keys, probe)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == probe[hit]
    return hit


@functools.cache
def _halo_offsets(m: int) -> np.ndarray:
    """The 3^m - 1 nonzero cell offsets of the one-cell halo."""
    off = np.array(list(itertools.product((-1, 0, 1), repeat=m)), dtype=np.int64)
    return off[off.any(axis=1)]


@dataclass
class ComponentRegion:
    """Connected set of parameter-grid cells forming the base component."""

    h: float
    cell_sizes: dict            # chart -> (m,) per-axis sizes
    cell_counts: dict           # chart -> (m,) int cells per axis
    blocks: dict                # chart -> _CellBlock
    sigma_max: float
    charts: list = field(repr=False)
    keys: dict = field(init=False, repr=False)  # chart -> sorted int64 cell keys

    def __post_init__(self):
        self.keys = {
            c: np.sort(_pack_keys(b.idx, self.cell_counts[c], self.charts[c].periodic))
            for c, b in self.blocks.items()
        }

    @property
    def total_cells(self) -> int:
        return sum(len(b.idx) for b in self.blocks.values())

    def contains(self, chart: int, coords) -> np.ndarray:
        """Cell membership with a one-cell halo: a row is inside when its
        cell or one of the 3^m - 1 cells around it belongs to the region."""
        coords = np.atleast_2d(coords)
        keys = self.keys.get(chart)
        if keys is None:
            return np.zeros(len(coords), dtype=bool)
        ch = self.charts[chart]
        counts = self.cell_counts[chart]
        idx = _cell_index(ch, self.cell_sizes[chart], coords)
        out = _in_sorted(keys, _pack_keys(idx, counts, ch.periodic))
        rest = np.nonzero(~out)[0]
        if len(rest):
            probe = (idx[rest, None, :] + _halo_offsets(ch.dim)).reshape(-1, ch.dim)
            near = _in_sorted(keys, _pack_keys(probe, counts, ch.periodic))
            out[rest] = near.reshape(len(rest), -1).any(axis=1)
        return out


def _singular_extremes(mat: np.ndarray):
    """(sigma_max, sigma_min) per stacked matrix, closed forms for m <= 2."""
    m = mat.shape[-1]
    if m == 1:
        s = np.linalg.norm(mat[..., 0], axis=-1)
        return s, s
    if m == 2:
        g = np.einsum("...ji,...jk->...ik", mat, mat)
        half_tr = 0.5 * (g[..., 0, 0] + g[..., 1, 1])
        disc = np.sqrt(
            np.maximum(0.25 * (g[..., 0, 0] - g[..., 1, 1]) ** 2
                       + g[..., 0, 1] ** 2, 0.0)
        )
        return (np.sqrt(np.maximum(half_tr + disc, 0.0)),
                np.sqrt(np.maximum(half_tr - disc, 0.0)))
    svals = np.linalg.svd(mat, compute_uv=False)
    return svals[..., 0], svals[..., -1]


def _orthonormalize_batch(jac: np.ndarray) -> np.ndarray:
    """Orthonormal column basis per stacked Jacobian."""
    m = jac.shape[-1]
    if m == 1:
        return jac / np.linalg.norm(jac, axis=-2, keepdims=True)
    if m == 2:
        a = jac[..., 0]
        b = jac[..., 1]
        q1 = a / np.linalg.norm(a, axis=-1, keepdims=True)
        w = b - np.sum(q1 * b, axis=-1, keepdims=True) * q1
        w = w - np.sum(q1 * w, axis=-1, keepdims=True) * q1
        q2 = w / np.linalg.norm(w, axis=-1, keepdims=True)
        return np.stack([q1, q2], axis=-1)
    q, r = np.linalg.qr(jac)
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sign[sign == 0] = 1.0
    return q * sign[..., None, :]


def _per_chart(fn, charts, coords) -> np.ndarray:
    """fn(chart, coords) on the rows of each chart, scattered back in row order."""
    out = None
    for c in np.unique(charts):
        rows = charts == c
        val = fn(int(c), coords[rows])
        if out is None:
            out = np.empty((len(charts),) + val.shape[1:], dtype=val.dtype)
        out[rows] = val
    return out


def _solve_linear(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve of small square systems with a pseudo-inverse fallback."""
    m = mats.shape[-1]
    if m == 1:
        denom = mats[..., 0, 0]
        safe = np.where(np.abs(denom) > 1e-300, denom, 1.0)
        out = rhs[..., 0] / safe
        out = np.where(np.abs(denom) > 1e-300, out, 0.0)
        return out[..., None]
    if m == 2:
        det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
        scale = np.abs(mats).max(axis=(-1, -2)) ** 2 + 1e-300
        degenerate = np.abs(det) < 1e-14 * scale
        inv_det = np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, det))
        sx = inv_det * (mats[..., 1, 1] * rhs[..., 0] - mats[..., 0, 1] * rhs[..., 1])
        sy = inv_det * (mats[..., 0, 0] * rhs[..., 1] - mats[..., 1, 0] * rhs[..., 0])
        out = np.stack([sx, sy], axis=-1)
        if degenerate.any():
            # damped normal-equation step for the singular rows
            bad = np.nonzero(degenerate)[0]
            for i in bad:
                a = mats[i]
                mu = 1e-12 * (np.abs(a).max() ** 2 + 1.0)
                out[i] = np.linalg.solve(a.T @ a + mu * np.eye(m), a.T @ rhs[i])
        return out
    return np.linalg.solve(mats, rhs[..., None])[..., 0]


def _flood(ctx: FrameContext, h: float) -> ComponentRegion:
    """Flood fill of cells whose centers project into the working ball.

    Expansion is level-synchronized and vectorized; when the frontier
    leaves a chart's valid set, the immersion's locate hook continues the
    fill in an overlapping chart, and a missing continuation raises
    BoundaryEscape.
    """
    f = ctx.immersion
    m = f.m
    r = ctx.radius
    charts = f.charts

    cell_sizes, cell_counts = {}, {}
    for ci, ch in enumerate(charts):
        size = np.full(m, h)
        counts = np.zeros(m, dtype=np.int64)
        for d in range(m):
            span = ch.hi[d] - ch.lo[d]
            if ch.periodic[d]:
                counts[d] = max(1, int(round(span / h)))
                size[d] = span / counts[d]
            else:
                counts[d] = max(1, int(np.floor(span / h + 1e-9)))
        cell_sizes[ci] = size
        cell_counts[ci] = counts

    def centers_of(ci, idx):
        return charts[ci].lo + (idx.astype(float) + 0.5) * cell_sizes[ci]

    def cells_of(ci, keys):
        return np.stack(np.unravel_index(keys, cell_counts[ci]), axis=1)

    def keys_of(ci, idx):
        return _pack_keys(idx, cell_counts[ci], charts[ci].periodic)

    def keys_at(ci, coords):
        """Keys of the cells under parameter coords of chart ci; on a bounded
        axis, a point past the last whole cell gets the last cell."""
        idx = _cell_index(charts[ci], cell_sizes[ci], coords)
        bounded = ~np.asarray(charts[ci].periodic)
        idx[:, bounded] = np.clip(idx[:, bounded], 0, cell_counts[ci][bounded] - 1)
        return keys_of(ci, idx)

    visited = {ci: np.zeros(0, dtype=np.int64) for ci in range(len(charts))}
    accepted = {ci: [] for ci in range(len(charts))}
    unit = np.eye(m, dtype=np.int64)

    def in_domain(ci, keys):
        """Mask of the keys whose cell lies in chart ci's valid set."""
        ok = keys >= 0
        inside = charts[ci].inside
        if inside is not None and ok.any():
            ok[ok] = inside(centers_of(ci, cells_of(ci, keys[ok])))
        return ok

    def admit(ci, keys):
        """Evaluate the unvisited cells of keys in first-occurrence order;
        store and return the indices of those inside the ball."""
        uniq, first = np.unique(keys, return_index=True)
        fresh = ~_in_sorted(visited[ci], uniq)
        if not fresh.any():
            return np.zeros((0, m), dtype=np.int64)
        new = uniq[fresh]
        visited[ci] = np.insert(visited[ci], np.searchsorted(visited[ci], new), new)
        idx = cells_of(ci, keys[np.sort(first[fresh])])
        cen = centers_of(ci, idx)
        y = ctx.frame_coords(ci, cen)
        x_c = y[:, :m]
        u_c = y[:, m:]
        sig, _ = _singular_extremes(f.jacobian_chart(ci, cen))
        ok = np.linalg.norm(x_c, axis=1) < r
        if ok.any():
            accepted[ci].append((idx[ok], cen[ok], x_c[ok], u_c[ok], sig[ok]))
        return idx[ok]

    # Seed with the base point's cell.
    base = ctx.base_point
    frontier = {base.chart: admit(base.chart, keys_at(base.chart, base.coords))}
    if len(frontier[base.chart]) == 0:
        raise GeometryError("base cell rejected; radius too small for the grid step")

    while frontier:
        next_frontier = {}
        escapes = []  # (chart, source cell index row)
        for ci, idxs in frontier.items():
            nbr = np.concatenate([idxs + u for u in unit] + [idxs - u for u in unit])
            src = np.concatenate([idxs] * (2 * m))
            keys = keys_of(ci, nbr)
            in_dom = in_domain(ci, keys)
            if not in_dom.all():
                escapes.extend((ci, tuple(s)) for s in src[~in_dom].tolist())
            grown = admit(ci, keys[in_dom])
            if len(grown):
                next_frontier.setdefault(ci, []).append(grown)

        if escapes:
            relocated = {}
            for ci, src_cell in set(escapes):
                if f.locate is None:
                    raise BoundaryEscape(
                        f"component reached the boundary of chart {ci} and the "
                        "immersion has no continuing chart"
                    )
                center = centers_of(ci, np.array([src_cell], dtype=np.int64))[0]
                ambient = f.eval_chart(ci, center)
                target = f.locate(ambient, exclude=ci)
                if target is None:
                    raise BoundaryEscape(
                        f"no chart continues the component beyond chart {ci}"
                    )
                relocated.setdefault(target.chart, []).append(target.coords)
            for ci, coords in relocated.items():
                grown = admit(ci, keys_at(ci, np.stack(coords)))
                if len(grown):
                    next_frontier.setdefault(ci, []).append(grown)

        frontier = {ci: np.concatenate(rows) for ci, rows in next_frontier.items()}
        if sum(len(v) for v in visited.values()) > CELL_BUDGET:
            raise GeometryError(
                f"component exceeded the cell budget ({CELL_BUDGET}); "
                "refine the radius or the grid step"
            )

    blocks = {}
    sigma_max = 0.0
    for ci, chunks in accepted.items():
        if not chunks:
            continue
        idx = np.concatenate([c[0] for c in chunks])
        cen = np.concatenate([c[1] for c in chunks])
        x_c = np.concatenate([c[2] for c in chunks])
        u_c = np.concatenate([c[3] for c in chunks])
        sig = np.concatenate([c[4] for c in chunks])
        blocks[ci] = _CellBlock(idx, cen, x_c, u_c, sig)
        sigma_max = max(sigma_max, float(sig.max()))

    return ComponentRegion(
        h=h,
        cell_sizes=cell_sizes,
        cell_counts=cell_counts,
        blocks=blocks,
        sigma_max=sigma_max,
        charts=charts,
    )


def component(ctx: FrameContext, h: float = None,
              refine_check: bool = None) -> ComponentRegion:
    """Connected component of the base point at grid step h.

    With h omitted, the step defaults to r / (32 sigma) with sigma the
    largest Jacobian singular value over the region (re-flooded when the
    initial base-point estimate proves too small), then the fill is
    accepted only if halving h changes the scaled cell count by at most
    one percent; otherwise the finer fill is kept.
    """
    if refine_check is None:
        refine_check = h is None
    r = ctx.radius
    m = ctx.immersion.m
    if h is not None:
        if h <= 0:
            raise ValueError("cell size must be positive")
        region = _flood(ctx, h)
        if h * region.sigma_max > r / 16.0 * (1 + 1e-6):
            raise ValueError(
                f"cell size too coarse: h*sigma = {h * region.sigma_max:.3e} "
                f"exceeds r/16 = {r / 16.0:.3e}"
            )
        return region

    jac = ctx.immersion.jacobian(ctx.base_point)
    sigma_max, _ = _singular_extremes(jac[None, ...])
    sigma = float(sigma_max[0]) * 1.3
    region = None
    for _ in range(4):
        h_try = r / (32.0 * sigma)
        region = _flood(ctx, h_try)
        if region.sigma_max <= sigma * (1 + 1e-6):
            break
        sigma = region.sigma_max * 1.05
    if refine_check:
        finer = _flood(ctx, region.h / 2.0)
        coarse_equiv = finer.total_cells / 2**m
        if abs(coarse_equiv - region.total_cells) > 0.01 * region.total_cells:
            region = finer
    return region


def _solve_batch(ctx: FrameContext, region: ComponentRegion, targets, seed_charts,
                 seed_coords):
    """Damped Newton for the frame projection equation, batched over targets.

    Solves pi(frame(f(t))) = x per row.  Steps that leave a chart's valid
    set are shrunk to the boundary and, when pinned there, the iterate is
    relocated into an overlapping chart.  Iterates that stay outside the
    component region for two consecutive iterations are abandoned as
    LeftRegion; the rest either converge or report NoConvergence.
    """
    f = ctx.immersion
    m, k = f.m, f.k
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    B = targets.shape[0]
    tol = 1e-10 * max(1.0, ctx.radius)

    chart = np.asarray(seed_charts, dtype=np.int64).copy()
    coords = np.atleast_2d(np.asarray(seed_coords, dtype=float)).copy()
    status = np.full(B, -1, dtype=np.int8)  # -1 active
    heights = np.zeros((B, k))
    strikes = np.zeros(B, dtype=np.int8)

    active = status == -1
    for _ in range(NEWTON_MAX_ITER):
        if not active.any():
            break
        y = _per_chart(ctx.frame_coords, chart[active], coords[active])
        g = y[:, :m] - targets[active]
        res = np.linalg.norm(g, axis=1)
        conv = res <= tol
        act_idx = np.nonzero(active)[0]
        if conv.any():
            rows = act_idx[conv]
            status[rows] = _SOLVE_OK
            heights[rows] = y[conv][:, m:]
            active[rows] = False
            if not active.any():
                break
            keep = ~conv
            y, g, res, act_idx = y[keep], g[keep], res[keep], act_idx[keep]

        # Newton step in the frame projection.
        cs = chart[act_idx]
        jac = _per_chart(f.jacobian_chart, cs, coords[act_idx])
        jg = np.einsum("ij,bjl->bil", ctx.iso.rotation.T[:m], jac)
        step = _solve_linear(jg, g)

        cur = coords[act_idx]
        best = None
        factor = np.ones(len(act_idx))
        for attempt, scale_try in enumerate((1.0, 0.5, 0.25)):
            if attempt == 0:
                trial_factor = factor
            else:
                trial_factor = np.where(improved, factor, factor * 0.5)
            cand = cur - trial_factor[:, None] * step
            cand = _constrain_to_charts(f, chart[act_idx], cur, cand)
            yc = _per_chart(ctx.frame_coords, cs, cand)
            res_new = np.linalg.norm(yc[:, :m] - targets[act_idx], axis=1)
            if best is None:
                best = (cand.copy(), res_new.copy())
                improved = res_new <= res * (1 - 1e-4)
            else:
                better = res_new < best[1]
                best[0][better] = cand[better]
                best[1][better] = res_new[better]
                improved |= res_new <= res * (1 - 1e-4)
            factor = trial_factor
            if improved.all():
                break
        coords[act_idx] = best[0]

        # Pinned at a domain boundary: try to continue in another chart.
        pinned = np.linalg.norm(best[0] - cur, axis=1) < 1e-12 * (
            np.linalg.norm(step, axis=1) + 1e-300
        )
        if pinned.any() and f.locate is not None:
            for row in act_idx[pinned]:
                ambient = f.eval_chart(int(chart[row]), coords[row])
                target = f.locate(ambient, exclude=int(chart[row]))
                if target is not None:
                    chart[row] = target.chart
                    coords[row] = target.coords

        # Region escape bookkeeping.
        inside = _per_chart(region.contains, chart[act_idx], coords[act_idx])
        strikes[act_idx[inside]] = 0
        strikes[act_idx[~inside]] += 1
        left = strikes >= 2
        if left.any():
            gone = np.nonzero(left & active)[0]
            status[gone] = _SOLVE_LEFT
            active[gone] = False

    status[status == -1] = _SOLVE_NO_CONV
    return status, chart, coords, heights


def _constrain_to_charts(f, charts_arr, cur, cand):
    """Wrap periodic axes; shrink steps that exit a chart's valid set."""
    m = cur.shape[1]

    def constrain(c, rows):
        ch = f.charts[c]
        start, cc = rows[:, :m], rows[:, m:]
        if all(ch.periodic) and ch.inside is None:
            return ch.wrap(cc)
        ok = ch.contains(cc)
        if not ok.all():
            delta = cc - start
            factor = np.ones(len(cc))
            for _ in range(8):
                bad = ~ok
                if not bad.any():
                    break
                factor[bad] *= 0.5
                cc[bad] = start[bad] + factor[bad, None] * delta[bad]
                ok[bad] = ch.contains(cc[bad])
            cc[~ok] = start[~ok]
        return ch.wrap(cc)

    return _per_chart(constrain, charts_arr, np.hstack([cur, cand]))


def solve_height(ctx: FrameContext, region: ComponentRegion, x,
                 seed: ParamPoint):
    """Parameter and height over one grid point, from a seed in the region.

    Returns (p, u) with the frame projection of f(p) matching x to the
    stated residual and u the remaining frame coordinates of f(p).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if np.linalg.norm(x) >= ctx.radius:
        raise ValueError("target lies outside the open working ball")
    if not region.contains(seed.chart, seed.coords)[0]:
        raise ValueError("seed parameter is not inside the component region")
    status, chart, coords, heights = _solve_batch(
        ctx, region, x[None, :], np.array([seed.chart]), seed.coords[None, :]
    )
    if status[0] == _SOLVE_LEFT:
        raise LeftRegion(f"iterate exited the component while solving x={x}")
    if status[0] != _SOLVE_OK:
        raise NoConvergence(f"no convergence after {NEWTON_MAX_ITER} iterations at x={x}")
    return ParamPoint(int(chart[0]), coords[0]), heights[0]


@dataclass
class GraphSample:
    """Gridded graph function over the working ball with per-node status."""

    radius: float
    grid_n: int
    m: int
    k: int
    node_idx: np.ndarray     # (P, m) integer grid indices
    coords: np.ndarray       # (P, m) node positions in the ball
    heights: np.ndarray      # (P, k)
    du: np.ndarray           # (P, k, m), nan where unavailable
    du_norm: np.ndarray      # (P,), nan where unavailable
    status: np.ndarray       # (P,) int8 status codes
    param_chart: np.ndarray  # (P,)
    param_coords: np.ndarray  # (P, m)
    region_h: float

    def status_counts(self) -> dict:
        return {
            name: int((self.status == code).sum())
            for code, name in enumerate(STATUS_NAMES)
        }

    def to_csv(self, path):
        """Plot-ready CSV: node coords, heights, status, derivative norm."""
        header = (
            [f"x{i + 1}" for i in range(self.m)]
            + [f"u{i + 1}" for i in range(self.k)]
            + ["status", "du_norm"]
        )
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for i in range(len(self.coords)):
                row = (
                    [f"{v:.17g}" for v in self.coords[i]]
                    + [f"{v:.17g}" for v in self.heights[i]]
                    + [STATUS_NAMES[self.status[i]], f"{self.du_norm[i]:.17g}"]
                )
                writer.writerow(row)


@dataclass
class NormEstimates:
    """Sup-norm estimates of the graph function and its derivative."""

    c0: float
    lip: float  # inf when a node is vertical


def extract(ctx: FrameContext, N: int, h: float = None,
            refine_check: bool = None) -> GraphSample:
    """Graph sample over the working ball on an N-per-axis grid.

    Nodes are solved by continuation outward from the center in blocks of
    Chebyshev rings, each node seeded from a solved node further in.  Status
    semantics: multi_sheet when two separated region cells land in one
    grid cell, vertical when the tangent space has no slope matrix in the
    frame, uncovered when the solve failed or never reached the node.
    """
    if N < 8:
        raise ValueError("grid resolution must be at least 8")
    region = component(ctx, h, refine_check=refine_check)
    return _extract_on_region(ctx, region, N)


def _solve_lattice(ctx: FrameContext, region: ComponentRegion, node_idx,
                   coords, center, shape):
    """Solve the nodes node_idx of a lattice of the given shape, targets
    coords, in blocks of Chebyshev rings (max(1, max(shape) / 64) wide)
    outward from center; the first block is seeded from the base point.

    Returns (node_map, solved, p_chart, p_coords, heights).
    """
    m, k = node_idx.shape[1], ctx.immersion.k
    P = len(node_idx)
    hi = np.asarray(shape) - 1
    node_map = np.full(shape, -1, dtype=np.int64)
    node_map[tuple(node_idx.T)] = np.arange(P)

    lvl = np.abs(node_idx - center).max(axis=1)
    heights = np.zeros((P, k))
    p_chart = np.zeros(P, dtype=np.int64)
    p_coords = np.zeros((P, m))
    solved = np.zeros(P, dtype=bool)

    bw = max(1.0, max(shape) / 64.0)
    block_of = np.floor(lvl / bw).astype(np.int64)

    for b in np.unique(block_of):
        rows = np.nonzero(block_of == b)[0]
        if b == 0:
            seeds_c = np.full(len(rows), ctx.base_point.chart, dtype=np.int64)
            seeds_x = np.tile(ctx.base_point.coords, (len(rows), 1))
            solve_rows = rows
        else:
            # Radial projection onto the outer solved ring, with a short
            # walk toward the center as fallback.
            li = lvl[rows]
            scale = (b * bw - 0.5) / np.maximum(li, 1e-12)
            proj = np.rint(center + (node_idx[rows] - center) * scale[:, None])
            proj = np.clip(proj, 0, hi).astype(np.int64)
            for _ in range(int(2 * bw) + 5):
                seed_ids = node_map[tuple(proj.T)]
                good = (seed_ids >= 0) & solved[np.clip(seed_ids, 0, P - 1)]
                if good.all():
                    break
                stuck = ~good
                move = np.sign(center - proj[stuck]).astype(np.int64)
                proj[stuck] = np.clip(proj[stuck] + move, 0, hi)
            solve_rows = rows[good]
            if len(solve_rows) == 0:
                continue
            seeds = seed_ids[good]
            seeds_c = p_chart[seeds]
            seeds_x = p_coords[seeds]
        st, cc, px, hh = _solve_batch(
            ctx, region, coords[solve_rows], seeds_c, seeds_x
        )
        ok = st == _SOLVE_OK
        done = solve_rows[ok]
        solved[done] = True
        heights[done] = hh[ok]
        p_chart[done] = cc[ok]
        p_coords[done] = px[ok]
    return node_map, solved, p_chart, p_coords, heights


def _extract_on_region(ctx: FrameContext, region: ComponentRegion,
                       N: int) -> GraphSample:
    f = ctx.immersion
    m, k = f.m, f.k
    r = ctx.radius
    a = r * (1 - 2e-9)
    axis = np.linspace(-a, a, N)
    mesh = np.meshgrid(*([axis] * m), indexing="ij")
    coords_all = np.stack([g.ravel() for g in mesh], axis=-1)
    idx_all = np.stack(
        [g.ravel() for g in np.meshgrid(*([np.arange(N)] * m), indexing="ij")],
        axis=-1,
    )
    keep = np.linalg.norm(coords_all, axis=1) < r * (1 - 1e-9)
    coords = coords_all[keep]
    node_idx = idx_all[keep]
    P = len(coords)

    node_map, solved, p_chart, p_coords, heights = _solve_lattice(
        ctx, region, node_idx, coords, (N - 1) / 2.0, (N,) * m
    )
    status = np.full(P, STATUS_UNCOVERED, dtype=np.int8)
    status[solved] = STATUS_OK

    # Exact derivatives from the tangent space at each solved parameter.
    du = np.full((P, k, m), np.nan)
    du_norm = np.full(P, np.nan)
    ok_rows = np.nonzero(solved)[0]
    if len(ok_rows):
        jac = _per_chart(f.jacobian_chart, p_chart[ok_rows], p_coords[ok_rows])
        basis = _orthonormalize_batch(jac)
        framed = np.einsum("ij,bjl->bil", ctx.iso.rotation.T, basis)
        top = framed[:, :m, :]
        bottom = framed[:, m:, :]
        _, smin = _singular_extremes(top)
        vertical = smin <= VERTICAL_RANK_TOL
        status[ok_rows[vertical]] = STATUS_VERTICAL
        good = ~vertical
        if good.any():
            slope = np.einsum(
                "bkj,bjl->bkl",
                bottom[good],
                np.linalg.inv(top[good]),
            )
            rows = ok_rows[good]
            du[rows] = slope
            du_norm[rows] = np.sqrt((slope * slope).sum(axis=(1, 2)))

    _mark_multi_sheet(region, status, node_map, a, N, m)

    return GraphSample(
        radius=r,
        grid_n=N,
        m=m,
        k=k,
        node_idx=node_idx,
        coords=coords,
        heights=heights,
        du=du,
        du_norm=du_norm,
        status=status,
        param_chart=p_chart,
        param_coords=p_coords,
        region_h=region.h,
    )


def _sheet_gap_keys(region: ComponentRegion, a, N, m) -> np.ndarray:
    """Raveled grid-cell keys where two separated sheets coincide.

    Two region cells binned to the same grid cell whose heights differ by
    more than 10 sigma times the coarser of the cell size and the node
    spacing indicate a genuine second sheet; anything below that is within
    what a single sloped sheet can span across one bin.
    """
    if region.total_cells == 0:
        return np.zeros(0, dtype=np.int64)
    delta = 2 * a / (N - 1)
    noise_scale = max(region.h, delta)
    x_c = np.concatenate([b.x for b in region.blocks.values()])
    u_c = np.concatenate([b.u for b in region.blocks.values()])
    sig = np.concatenate([b.sigma for b in region.blocks.values()])
    bins = np.clip(np.rint((x_c + a) / delta), 0, N - 1).astype(np.int64)
    key = np.ravel_multi_index(tuple(bins.T), (N,) * m)
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    u_s = u_c[order]
    sig_s = sig[order]
    boundaries = np.nonzero(np.diff(key_s))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(key_s)]])
    u_max = np.maximum.reduceat(u_s, starts, axis=0)
    u_min = np.minimum.reduceat(u_s, starts, axis=0)
    sig_max = np.maximum.reduceat(sig_s, starts)
    gaps = (u_max - u_min).max(axis=1)
    hit = (ends - starts >= 2) & (gaps > 10.0 * noise_scale * sig_max)
    return key_s[starts[hit]]


def second_sheet_present(region: ComponentRegion, radius: float, N: int,
                         m: int) -> bool:
    """Cheap scan: would extraction at this resolution flag multi-sheet nodes?

    Matches the node-level flagging of extract exactly (only keys whose
    grid node exists inside the open ball count).
    """
    a = radius * (1 - 2e-9)
    idx = np.unravel_index(_sheet_gap_keys(region, a, N, m), (N,) * m)
    coords = np.linspace(-a, a, N)[np.stack(idx, axis=-1)]
    return bool((np.linalg.norm(coords, axis=1) < radius * (1 - 1e-9)).any())


def _mark_multi_sheet(region: ComponentRegion, status, node_map, a, N, m):
    nodes = node_map[np.unravel_index(_sheet_gap_keys(region, a, N, m), (N,) * m)]
    status[nodes[nodes >= 0]] = STATUS_MULTI_SHEET


def norms(sample: GraphSample) -> NormEstimates:
    """Sup norms of the sampled graph: c0 of the heights, lip of the slopes.

    The c0 estimate carries a grid-resolution correction (r/N) * lip when
    the slope bound is finite, since suprema of the continuum function may
    sit between nodes.  Requires a single covering sheet.
    """
    counts = sample.status_counts()
    if counts["multi_sheet"] or counts["uncovered"]:
        raise NotAGraph(
            "graph norms undefined: "
            f"{counts['multi_sheet']} multi-sheet, "
            f"{counts['uncovered']} uncovered nodes"
        )
    if counts["vertical"]:
        lip = float("inf")
    else:
        lip = float(sample.du_norm.max()) if len(sample.du_norm) else 0.0
    c0 = float(np.linalg.norm(sample.heights, axis=1).max())
    if np.isfinite(lip):
        c0 += (sample.radius / sample.grid_n) * lip
    return NormEstimates(c0=c0, lip=lip)
