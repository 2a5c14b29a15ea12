"""Component computation and graph-function extraction in a tangent frame.

Pipeline: pick a base point and an admissible isometry, flood-fill the
connected parameter-space component whose frame projection stays inside
the ball of the working radius, then solve for the graph heights on a
regular grid by continuation outward from the center.  Derivatives come
from the exact tangent space at each solved parameter, not from height
differencing.

All heavy steps are vectorized over grid nodes and cells.  The component
is labelled on, and stored as, one dense boolean cell window per chart,
so a membership test is one array lookup.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryEscape,
    GeometryError,
    LeftRegion,
    NoConvergence,
    NotAGraph,
)
from .geometry import (Isometry, _orthonormalize_batch, _singular_extremes, graph_slopes,
                       is_admissible, left_product, make_admissible_isometry, row_norm)
from .zoo import ParamImmersion, ParamPoint, tangent_space

STATUS_OK = 0
STATUS_VERTICAL = 1
STATUS_MULTI_SHEET = 2
STATUS_UNCOVERED = 3
STATUS_NAMES = ("ok", "vertical", "multi_sheet", "uncovered")

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
    coords = np.atleast_2d(coords)
    shifted = [(coords[:, d] - lo) / size[d] for d, lo in enumerate(chart.lo)]
    return np.floor(np.stack(shifted, axis=-1)).astype(np.int64)


def _window_pos(cells, lo, shape, counts, periodic):
    """Positions of cell index rows in the window at lo of the given shape,
    periodic axes taken mod counts, and which rows fall inside it."""
    pos = np.stack([cells[:, d] - first for d, first in enumerate(lo)], axis=-1)
    ok = np.ones(len(pos), dtype=bool)
    for d, col in enumerate(pos.T):
        if periodic[d]:
            col %= counts[d]
        ok &= (col >= 0) & (col < shape[d])
    return pos, ok


def _flat_index(pos, shape) -> np.ndarray:
    """Row-major flat index of each row of in-range positions in shape."""
    flat = pos[:, 0]
    for d in range(1, pos.shape[1]):
        flat = flat * shape[d] + pos[:, d]
    return flat


def _grid_rows(axes) -> np.ndarray:
    """Rows of the grid spanned by per-axis values, in row-major order."""
    out = np.empty(tuple(map(len, axes)) + (len(axes),), dtype=np.result_type(*axes))
    for d, vals in enumerate(axes):
        out[..., d] = vals.reshape((-1,) + (1,) * (len(axes) - 1 - d))
    return out.reshape(-1, len(axes))


def _label(mask: np.ndarray, seam) -> np.ndarray:
    """Face-connected components of a boolean array by union-find over
    neighbour pairs: each True cell gets the smallest flat index of its
    component, every other cell -1.  An axis flagged in seam joins its
    last cell to its first."""
    ids = np.arange(mask.size).reshape(mask.shape)
    a, b = [], []
    for d in range(mask.ndim):
        pair = mask & np.roll(mask, -1, axis=d)
        if not seam[d]:
            pair[(slice(None),) * d + (-1,)] = False
        a.append(ids[pair])
        b.append(np.roll(ids, -1, axis=d)[pair])
    a, b = np.concatenate(a), np.concatenate(b)
    parent = np.arange(mask.size)
    while (hook := parent[a] != parent[b]).any():
        # hook the larger root onto the smaller, then jump to the roots
        pa, pb = parent[a[hook]], parent[b[hook]]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while not np.array_equal(parent, up := parent[parent]):
            parent = up
    return np.where(mask, parent.reshape(mask.shape), -1)


@dataclass
class ComponentRegion:
    """Connected set of parameter-grid cells forming the base component."""

    h: float
    cell_sizes: dict            # chart -> (m,) per-axis sizes
    cell_counts: dict           # chart -> (m,) int cells per axis
    blocks: dict                # chart -> _CellBlock
    sigma_max: float
    charts: list = field(repr=False)
    # chart -> (lo, halo): the window's first cell, unwrapped, and region mask grown by a cell
    windows: dict = field(repr=False)
    # (a, N) -> _sheet_gap_keys, shared by a witness's cell scan and its extraction
    sheet_keys: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def total_cells(self) -> int:
        return sum(len(b.idx) for b in self.blocks.values())

    def contains(self, chart: int, coords) -> np.ndarray:
        """Cell membership with a one-cell halo: a row is inside when its
        cell or one of the 3^m - 1 cells around it belongs to the region."""
        coords = np.atleast_2d(coords)
        if chart not in self.windows:
            return np.zeros(len(coords), dtype=bool)
        lo, halo = self.windows[chart]
        ch = self.charts[chart]
        pos, ok = _window_pos(_cell_index(ch, self.cell_sizes[chart], coords), lo,
                              halo.shape, self.cell_counts[chart], ch.periodic)
        # a row outside the window reads a clipped cell, then False
        return halo.take(_flat_index(pos, halo.shape), mode="clip") & ok


def _chart_slices(charts):
    """(chart, slice of its rows) for each chart of a chart-sorted array."""
    cuts = [0, *(np.flatnonzero(charts[1:] != charts[:-1]) + 1).tolist(), len(charts)]
    return [(int(charts[a]), slice(a, b)) for a, b in zip(cuts, cuts[1:]) if b > a]


def _per_chart(fn, charts, coords) -> np.ndarray:
    """fn(chart, coords) on each chart's rows, in row order; one chart's batch whole."""
    present = np.flatnonzero(np.bincount(charts))
    if len(present) == 1:
        return fn(int(present[0]), coords)
    out = None
    for c in present:
        rows = np.flatnonzero(charts == c)
        val = fn(int(c), coords.take(rows, axis=0))
        if out is None:
            out = np.empty((len(charts),) + val.shape[1:], dtype=val.dtype)
        out[rows] = val
    return out


def _solve_linear(mats: np.ndarray, rhs: np.ndarray):
    """Batched solve of small square systems: (step, singular).

    A system is singular when |det| <= 1e-14 max|a_ij|^m; it takes no step.
    """
    m = mats.shape[-1]
    if m == 1:
        det = mats[..., 0, 0]
    elif m == 2:
        det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    else:
        det = np.linalg.det(mats)
    scale = np.abs(mats[..., 0, 0])
    for i, j in np.ndindex(m, m):
        scale = np.maximum(scale, np.abs(mats[..., i, j]))
    singular = np.abs(det) <= 1e-14 * scale ** m
    if m > 2:
        regular = np.where(singular[..., None, None], np.eye(m), mats)
        step = np.linalg.solve(regular, rhs[..., None])[..., 0]
        return np.where(singular[..., None], 0.0, step), singular
    safe = np.where(singular, 1.0, det)
    if m == 1:
        return np.where(singular, 0.0, rhs[..., 0] / safe)[..., None], singular
    inv_det = np.where(singular, 0.0, 1.0 / safe)
    sx = inv_det * (mats[..., 1, 1] * rhs[..., 0] - mats[..., 0, 1] * rhs[..., 1])
    sy = inv_det * (mats[..., 0, 0] * rhs[..., 1] - mats[..., 1, 0] * rhs[..., 0])
    return np.stack([sx, sy], axis=-1), singular


def _flood(ctx: FrameContext, h: float) -> ComponentRegion:
    """Component of the base cell, labelled on one dense cell window per chart.

    A window starts as the first-order box of the ball's preimage at the
    chart's first seed, plus two cells per side.  The seeds and the valid
    cells whose centers project into the ball are labelled by face
    connectivity (across a periodic seam the window spans), and the seeds'
    components kept; a face they touch moves out by half the window width.
    Kept cells next to an invalid cell are relocated through the
    immersion's locate hook into the chart that continues them (none:
    BoundaryEscape), which is relabelled from all its seeds.  Rows are each
    chart's seeds, base cell first, then window order.
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

    def seed_cell(ci, coords):
        """Cell under coords, periodic axes wrapped; on a bounded axis, a
        point past the last whole cell gets the last cell."""
        idx = _cell_index(charts[ci], cell_sizes[ci], coords)[0]
        counts = cell_counts[ci]
        return tuple(np.where(charts[ci].periodic, np.mod(idx, counts),
                              np.clip(idx, 0, counts - 1)).tolist())

    def bounds(ci, lo, hi):
        """(lo, shape) of the window [lo, hi), capped at one period on
        periodic axes and one cell past the chart on bounded ones."""
        counts = cell_counts[ci]
        periodic = np.asarray(charts[ci].periodic)
        lo = np.where(periodic, lo, np.maximum(lo, -1))
        hi = np.minimum(hi, np.where(periodic, lo + counts, counts + 1))
        return lo, hi - lo

    def label(ci):
        """Label chart ci's seeds on a window covering them, grown until no
        kept cell lies on a face but a seam; returns lo, the kept mask, the
        centers of kept cells next to an invalid cell, and their block."""
        ch, size, counts = charts[ci], cell_sizes[ci], cell_counts[ci]
        periodic = np.asarray(ch.periodic)
        if ci in kept:
            lo, shape = kept[ci][0], np.array(kept[ci][1].shape)
        else:
            cell, coords = next(iter(seeds[ci].items()))
            jac = f.jacobian_chart(ci, coords)
            half = r * np.sqrt(np.diag(np.linalg.pinv(jac.T @ jac))) / size
            half = np.minimum(np.ceil(half) + 2, counts + 1).astype(np.int64)
            lo, shape = bounds(ci, cell - half, cell + half + 1)
        cells = np.array(list(seeds[ci]))
        pos, _ = _window_pos(cells, lo, shape, counts, periodic)
        lo, shape = bounds(ci, lo + np.minimum(pos.min(axis=0), 0),
                           lo + np.maximum(pos.max(axis=0) + 1, shape))
        while True:
            if np.prod(shape) > CELL_BUDGET:
                raise GeometryError(f"component window exceeded the cell budget "
                                    f"({CELL_BUDGET}); refine the radius or the grid step")
            at = _flat_index(_window_pos(cells, lo, shape, counts, periodic)[0], shape)
            cols = [lo[d] + np.arange(shape[d]) for d in range(m)]
            cols = [col % counts[d] if periodic[d] else col for d, col in enumerate(cols)]
            idx = _grid_rows(cols)
            center = _grid_rows([ch.lo[d] + (col + 0.5) * size[d] for d, col in enumerate(cols)])
            inner = [(col >= 0) & (col < counts[d]) for d, col in enumerate(cols)]
            valid = functools.reduce(np.logical_and.outer, inner).ravel()
            if ch.inside is not None:
                valid[valid] = ch.inside(center.compress(valid, axis=0))
            test = valid.copy()
            test[at] = True  # seeds skip the valid-set test
            y = ctx.frame_coords(ci, center.compress(test, axis=0))
            ball = np.zeros(len(idx), dtype=bool)
            ball[test] = row_norm(y[:, :m]) < r
            seam = periodic & (shape == counts)
            labels = _label(ball.reshape(shape), seam).ravel()
            keep = ball & np.isin(labels, labels[at[ball[at]]])
            window = keep.reshape(shape)
            touch = np.array([[window.take(end, axis=d).any() for end in (0, -1)]
                              for d in range(m)]) & ~seam[:, None]
            if not touch.any():
                break
            step = np.maximum(1, shape // 2)
            lo, shape = bounds(ci, lo - step * touch[:, 0], lo + shape + step * touch[:, 1])
        if ci == base.chart and not ball[at[0]]:
            raise GeometryError("base cell rejected; radius too small for the grid step")

        invalid = ~valid.reshape(shape)
        near = np.zeros(shape, dtype=bool)
        for d in range(m):
            near |= np.roll(invalid, 1, axis=d) | np.roll(invalid, -1, axis=d)
        lead = at[keep[at]]  # seeds first, in arrival order
        rest = keep.copy()
        rest[lead] = False
        pick = np.concatenate([lead, np.flatnonzero(rest)])
        y = y.take((np.cumsum(test) - 1).take(pick), axis=0)
        center_kept = center.take(pick, axis=0)
        sig, _ = _singular_extremes(f.jacobian_chart(ci, center_kept))
        block = _CellBlock(idx.take(pick, axis=0), center_kept, y[:, :m], y[:, m:], sig)
        return lo, window, center.compress(keep & near.ravel(), axis=0), block

    base = ctx.base_point
    seeds = {base.chart: {seed_cell(base.chart, base.coords): base.coords}}
    kept, blocks = {}, {}  # chart -> (lo, kept mask of the window), block
    todo = [base.chart]
    while todo:
        ci = todo.pop(0)
        lo, window, escapes, blocks[ci] = label(ci)
        kept[ci] = (lo, window)
        for ambient in f.eval_chart(ci, escapes):
            target = f.locate(ambient, exclude=ci) if f.locate else None
            if target is None:
                raise BoundaryEscape(f"component reached the boundary of chart {ci} "
                                     "and no chart continues it")
            tc = int(target.chart)
            cell = seed_cell(tc, target.coords)
            if cell not in seeds.setdefault(tc, {}):
                seeds[tc][cell] = target.coords
                if tc not in todo:
                    todo.append(tc)

    blocks = {ci: b for ci, b in sorted(blocks.items()) if len(b.idx)}
    halos = {}
    for ci in blocks:
        lo, halo = kept[ci]
        halo = halo.copy()
        for d in range(m):
            halo |= np.roll(halo, 1, axis=d) | np.roll(halo, -1, axis=d)
        halos[ci] = (lo, halo)

    return ComponentRegion(
        h=h,
        cell_sizes=cell_sizes,
        cell_counts=cell_counts,
        blocks=blocks,
        sigma_max=max(float(b.sigma.max()) for b in blocks.values()),
        charts=charts,
        windows=halos,
    )


def component(ctx: FrameContext, h: float = None) -> ComponentRegion:
    """Connected component of the base point at grid step h.

    With h omitted, the step defaults to r / (32 sigma) with sigma the
    largest Jacobian singular value over the region (re-flooded when the
    initial base-point estimate proves too small).
    """
    r = ctx.radius
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
    return region


def _solve_batch(ctx: FrameContext, region: ComponentRegion, targets, seed_charts,
                 seed_coords):
    """Damped Newton for the frame projection equation, batched over targets.

    Solves pi(frame(f(t))) = x per row.  Each iteration steps the rows of
    each chart together.  Steps that leave a chart's valid set are shrunk to
    the boundary and, when pinned there, the iterate is relocated into an
    overlapping chart.  Iterates that stay outside the component region for
    two consecutive iterations are abandoned as LeftRegion; the rest either
    converge or report NoConvergence.  A row whose Newton system is
    singular takes no step and ends at once as NoConvergence.
    """
    f = ctx.immersion
    m, k = f.m, f.k
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    B = targets.shape[0]
    tol = 1e-10 * max(1.0, ctx.radius)
    proj = ctx.iso.rotation.T[:m]

    out = (np.full(B, _SOLVE_NO_CONV, dtype=np.int8),
           np.asarray(seed_charts, dtype=np.int64).copy(),
           np.atleast_2d(np.asarray(seed_coords, dtype=float)).copy(),
           np.zeros((B, k)))
    # Live rows, sorted by chart so that each chart's rows are one slice:
    # row id, target, chart, iterate, its frame coords, strikes.
    order = np.argsort(out[1], kind="stable")
    ids, tgt, chart, cur, y, strikes = live = [
        order, targets.take(order, axis=0), out[1].take(order),
        out[2].take(order, axis=0), np.empty((B, f.n)), np.zeros(B, dtype=np.int8)]
    for c, sl in _chart_slices(chart):
        y[sl] = ctx.frame_coords(c, cur[sl])
    for _ in range(NEWTON_MAX_ITER):
        ids, tgt, chart, cur, y, strikes = live
        g = y[:, :m] - tgt
        res = row_norm(g)
        conv = res <= tol
        if conv.any():
            g, res = g.compress(~conv, axis=0), res.compress(~conv)
            live = ids, tgt, chart, cur, y, strikes = _leave(live, conv, _SOLVE_OK, out)

        # Newton step in the frame projection, one chart's slice at a time;
        # a row relocated into another chart waits a turn.
        singular_rows, moved = np.zeros(len(ids), dtype=bool), False
        for c, sl in _chart_slices(chart):
            cur_c, tgt_c, res_c = cur[sl], tgt[sl], res[sl]
            jac = f.jacobian_chart(c, cur_c)
            step, singular_rows[sl] = _solve_linear(left_product(proj, jac), g[sl])

            # Backtracking: rows whose residual did not drop retry at half and
            # then a quarter of the step, keeping their best candidate.
            ch = f.charts[c]
            best = _constrain(ch, cur_c, cur_c - step)
            best_y = ctx.frame_coords(c, best)
            best_res = row_norm(best_y[:, :m] - tgt_c)
            retry = np.nonzero(~(best_res <= res_c * (1 - 1e-4)))[0]
            for scale in (0.5, 0.25):
                if not len(retry):
                    break
                start = cur_c.take(retry, axis=0)
                cand = _constrain(ch, start, start - scale * step.take(retry, axis=0))
                yc = ctx.frame_coords(c, cand)
                res_new = row_norm(yc[:, :m] - tgt_c.take(retry, axis=0))
                better = res_new < best_res[retry]
                best[retry[better]] = cand[better]
                best_y[retry[better]] = yc[better]
                best_res[retry[better]] = res_new[better]
                retry = retry[~(res_new <= res_c[retry] * (1 - 1e-4))]
            # cur_c views the iterate: test for pinned rows before writing
            pinned = row_norm(best - cur_c) < 1e-12 * row_norm(step)
            cur[sl] = best
            y[sl] = best_y

            # Pinned at a domain boundary: try to continue in another chart.
            if pinned.any() and f.locate is not None:
                for row in sl.start + np.flatnonzero(pinned):
                    target = f.locate(f.eval_chart(c, cur[row]), exclude=c)
                    if target is not None:
                        chart[row] = target.chart
                        cur[row] = target.coords
                        y[row] = ctx.frame_coords(target.chart, target.coords[None, :])[0]
                        moved = True
        # A singular row took no step; it ends unsolved.
        if singular_rows.any():
            live = ids, tgt, chart, cur, y, strikes = _leave(
                live, singular_rows, _SOLVE_NO_CONV, out)
        if not len(ids):
            break

        # Region escape bookkeeping, in each row's chart after relocation.
        inside = _per_chart(region.contains, chart, cur)
        strikes[:] = np.where(inside, 0, strikes + 1)
        gone = strikes >= 2
        if gone.any():
            live = _leave(live, gone, _SOLVE_LEFT, out)
        if moved:
            order = np.lexsort((live[0], live[2]))
            live = [a.take(order, axis=0) for a in live]

    _leave(live, np.ones(len(live[0]), dtype=bool), _SOLVE_NO_CONV, out)
    return out


def _leave(live, sel, code, out):
    """Write the selected live rows' status, chart and iterate (and heights
    when solved) into out, and return the other live rows."""
    every = sel.all()  # then nothing stays, and nothing need be copied
    rows, _, chart, cur, y = live[:5] if every else [a.compress(sel, axis=0) for a in live[:5]]
    status, out_chart, out_coords, heights = out
    status[rows], out_chart[rows], out_coords[rows] = code, chart, cur
    if code == _SOLVE_OK:
        heights[rows] = y[:, cur.shape[1]:]
    return [a[:0] if every else a.compress(~sel, axis=0) for a in live]


def _constrain(chart, start, cand):
    """Wrap chart's periodic axes; shrink steps from start that exit its valid set."""
    if all(chart.periodic) and chart.inside is None:
        return chart.wrap(cand)
    ok = chart.contains(cand)
    if not ok.all():
        delta = cand - start
        factor = np.ones(len(cand))
        for _ in range(8):
            bad = ~ok
            if not bad.any():
                break
            factor[bad] *= 0.5
            cand[bad] = start[bad] + factor[bad, None] * delta[bad]
            ok[bad] = chart.contains(cand[bad])
        cand[~ok] = start[~ok]
    return chart.wrap(cand)


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


def extract(ctx: FrameContext, N: int, h: float = None) -> GraphSample:
    """Graph sample over the working ball on an N-per-axis grid.

    Nodes are solved by continuation outward from the center in blocks of
    N/4 Chebyshev rings, each node seeded from a solved node further in.
    Status semantics: multi_sheet when two separated region cells land in one
    grid cell, vertical when the tangent space has no slope matrix in the
    frame, uncovered when the solve failed or never reached the node.
    """
    if N < 8:
        raise ValueError("grid resolution must be at least 8")
    region = component(ctx, h)
    return _extract_on_region(ctx, region, N)


def _solve_lattice(ctx: FrameContext, region: ComponentRegion, node_idx,
                   coords, center, shape):
    """Solve the nodes node_idx of a lattice of the given shape, targets
    coords, by continuation outward from center in blocks of
    max(1, max(shape) / 4) Chebyshev rings.  A block's rows are seeded
    from the base point in the first block and otherwise from the solved
    node nearest their radial projection onto the ring just inside the
    block; rows that fail stay unsolved.

    Returns (node_map, solved, p_chart, p_coords, heights).
    """
    m, k = node_idx.shape[1], ctx.immersion.k
    P = len(node_idx)
    hi = np.asarray(shape) - 1
    node_map = np.full(shape, -1, dtype=np.int64)
    node_map.put(_flat_index(node_idx, shape), np.arange(P))

    center = np.broadcast_to(center, (m,))
    lvl = np.maximum.reduce([np.abs(node_idx[:, d] - center[d]) for d in range(m)])
    heights = np.zeros((P, k))
    p_chart = np.zeros(P, dtype=np.int64)
    p_coords = np.zeros((P, m))
    solved = np.zeros(P, dtype=bool)

    bw = max(1.0, max(shape) / 4.0)
    block_of = np.floor(lvl / bw).astype(np.int64)

    for b in np.flatnonzero(np.bincount(block_of)):
        rows = np.flatnonzero(block_of == b)
        if b == 0:
            seeds_c = np.full(len(rows), ctx.base_point.chart, dtype=np.int64)
            seeds_x = np.tile(ctx.base_point.coords, (len(rows), 1))
            solve_rows = rows
        else:
            # Radial projection onto the outer solved ring, with a short
            # walk toward the center as fallback.
            scale = (b * bw - 0.5) / np.maximum(lvl.take(rows), 1e-12)
            proj = np.empty((len(rows), m), dtype=np.int64)
            for d in range(m):
                ray = center[d] + (node_idx[:, d].take(rows) - center[d]) * scale
                proj[:, d] = np.clip(np.rint(ray), 0, hi[d])
            for _ in range(int(2 * bw) + 5):
                seed_ids = node_map.take(_flat_index(proj, shape))
                good = (seed_ids >= 0) & solved.take(seed_ids, mode="clip")
                if good.all():
                    break
                stuck = ~good
                move = np.sign(center - proj[stuck]).astype(np.int64)
                proj[stuck] = np.clip(proj[stuck] + move, 0, hi)
            solve_rows = rows.compress(good)
            if len(solve_rows) == 0:
                continue
            seeds = seed_ids.compress(good)
            seeds_c = p_chart.take(seeds)
            seeds_x = p_coords.take(seeds, axis=0)
        st, cc, px, hh = _solve_batch(
            ctx, region, coords.take(solve_rows, axis=0), seeds_c, seeds_x
        )
        ok = st == _SOLVE_OK
        done = solve_rows.compress(ok)
        solved[done] = True
        heights[done] = hh.compress(ok, axis=0)
        p_chart[done] = cc.compress(ok)
        p_coords[done] = px.compress(ok, axis=0)
    return node_map, solved, p_chart, p_coords, heights


def _extract_on_region(ctx: FrameContext, region: ComponentRegion,
                       N: int) -> GraphSample:
    f = ctx.immersion
    m, k = f.m, f.k
    r = ctx.radius
    a = r * (1 - 2e-9)
    coords_all = _grid_rows([np.linspace(-a, a, N)] * m)
    idx_all = _grid_rows([np.arange(N)] * m)
    keep = row_norm(coords_all) < r * (1 - 1e-9)
    coords = coords_all.compress(keep, axis=0)
    node_idx = idx_all.compress(keep, axis=0)
    P = len(coords)

    node_map, solved, p_chart, p_coords, heights = _solve_lattice(
        ctx, region, node_idx, coords, (N - 1) / 2.0, (N,) * m
    )
    status = np.full(P, STATUS_UNCOVERED, dtype=np.int8)
    status[solved] = STATUS_OK

    # Exact derivatives from the tangent space at each solved parameter.
    du = np.full((P, k, m), np.nan)
    du_norm = np.full(P, np.nan)
    ok_rows = np.flatnonzero(solved)
    if len(ok_rows):
        jac = _per_chart(f.jacobian_chart, p_chart.take(ok_rows),
                         p_coords.take(ok_rows, axis=0))
        basis = _orthonormalize_batch(jac)
        slope, vertical = graph_slopes(left_product(ctx.iso.rotation.T, basis))
        status[ok_rows[vertical]] = STATUS_VERTICAL
        du[ok_rows] = slope
        du_norm[ok_rows] = row_norm(slope.reshape(len(slope), -1))

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
    if (a, N) in region.sheet_keys:
        return region.sheet_keys[a, N]
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
    region.sheet_keys[a, N] = key_s[starts[hit]]
    return region.sheet_keys[a, N]


def second_sheet_present(region: ComponentRegion, radius: float, N: int,
                         m: int) -> bool:
    """Cheap scan: would extraction at this resolution flag multi-sheet nodes?

    Matches the node-level flagging of extract exactly (only keys whose
    grid node exists inside the open ball count).
    """
    a = radius * (1 - 2e-9)
    idx = np.unravel_index(_sheet_gap_keys(region, a, N, m), (N,) * m)
    coords = np.linspace(-a, a, N)[np.stack(idx, axis=-1)]
    return bool((row_norm(coords) < radius * (1 - 1e-9)).any())


def _mark_multi_sheet(region: ComponentRegion, status, node_map, a, N, m):
    nodes = node_map.take(_sheet_gap_keys(region, a, N, m))
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
    c0 = float(row_norm(sample.heights).max())
    if np.isfinite(lip):
        c0 += (sample.radius / sample.grid_n) * lip
    return NormEstimates(c0=c0, lip=lip)
