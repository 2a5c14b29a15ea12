"""Component computation and graph-function extraction in a tangent frame.

Pipeline: pick a base point and an admissible isometry, flood-fill the
connected parameter-space component whose frame projection stays inside
the ball of the working radius, then solve for the graph heights on a
regular grid in one Newton batch, each node seeded by a predictor step
from the region cell whose projection lies near it.  Derivatives come
from the exact Jacobian at each solved parameter, turned into the frame,
not from height differencing.

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
from .geometry import (Isometry, _entries, _grid_rows, _singular_extremes, _stack_entries,
                       is_admissible, make_admissible_isometry, product_columns, row_norm,
                       span_slopes)
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

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        self.radius = float(self.radius)

    @classmethod
    def at(cls, immersion: ParamImmersion, q: ParamPoint, r: float,
           iso: Isometry = None) -> "FrameContext":
        """Context with the canonical admissible isometry unless one is given."""
        plane = tangent_space(immersion, q)
        base = immersion.eval(q)
        if iso is None:
            iso = make_admissible_isometry(base, plane)
        elif not is_admissible(iso, base, plane):
            raise ValueError("provided isometry is not admissible at the base point")
        return cls(immersion, q, iso, r)

    def with_radius(self, r: float) -> "FrameContext":
        """The same base point and frame at radius r."""
        return FrameContext(self.immersion, self.base_point, self.iso, r)

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
    scale: np.ndarray    # (C,) image width bound sigma_max(J diag(cell size)) there
    jac: np.ndarray      # (C, n, m) Jacobians at the centers


def _cell_index(chart, size, coords) -> np.ndarray:
    """Integer cell of each row of parameter coords, periodic axes unwrapped."""
    coords = np.atleast_2d(coords)
    cells = np.empty(coords.shape, dtype=np.int64)
    for d, lo in enumerate(chart.lo):
        cells[:, d] = np.floor((coords[:, d] - lo) / size[d])
    return cells


def _window_pos(cells, lo, shape, counts, periodic):
    """Positions of cell index rows in the window at lo of the given shape,
    periodic axes taken mod counts, and which rows fall inside it."""
    pos = np.empty(cells.shape, dtype=np.int64)
    for d, first in enumerate(lo):
        np.subtract(cells[:, d], first, out=pos[:, d])
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


def _window_read(mask, lo, counts, periodic, cells) -> np.ndarray:
    """mask, a window at lo, read at cell index rows (periodic axes taken
    mod counts); False for rows outside the window."""
    pos, ok = _window_pos(cells, lo, mask.shape, counts, periodic)
    # a row outside the window reads a clipped cell, then False
    return mask.take(_flat_index(pos, mask.shape), mode="clip") & ok


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

    h_axes: np.ndarray          # (m,) per-axis cell sizes the flood was given
    cell_sizes: dict            # chart -> (m,) per-axis sizes
    cell_counts: dict           # chart -> (m,) int cells per axis
    blocks: dict                # chart -> _CellBlock
    scale_max: float            # largest cell scale over the blocks
    charts: list = field(repr=False)
    # chart -> (lo, halo): the window's first cell, unwrapped, and region mask grown by a cell
    windows: dict = field(repr=False)
    # (a, N) -> _sheet_gap_keys, shared by a witness's cell scan and its extraction
    sheet_keys: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def h(self) -> float:
        """Smallest side of the flood's cells."""
        return float(self.h_axes.min())

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
        return _window_read(halo, lo, self.cell_counts[chart], ch.periodic,
                            _cell_index(ch, self.cell_sizes[chart], coords))


ALL = slice(None)  # the row set holding every row


def _take(a: np.ndarray, rows) -> np.ndarray:
    """The rows (indices, or ALL) of a; a itself for ALL."""
    return a if rows is ALL else a.take(rows, axis=0)


def _chart_groups(charts):
    """(chart, its row indices) per chart present, rows in order; ALL when
    one chart holds every row."""
    if len(charts) and (charts == charts[0]).all():
        return [(int(charts[0]), ALL)]
    return [(int(c), np.flatnonzero(charts == c)) for c in np.flatnonzero(np.bincount(charts))]


def _per_chart(fn, charts, *arrays) -> np.ndarray:
    """fn(chart, *arrays) on each chart's rows, in row order; one chart's batch whole."""
    out = None
    for c, rows in _chart_groups(charts):
        val = fn(c, *(_take(a, rows) for a in arrays))
        if rows is ALL:
            return val
        if out is None:
            out = np.empty((len(charts),) + val.shape[1:], dtype=val.dtype)
        out[rows] = val
    return out


def _column_norm(cols: list) -> np.ndarray:
    """row_norm of the rows whose columns are cols, with its bits."""
    square = cols[0] * cols[0]
    for col in cols[1:]:
        square += col * col
    return np.sqrt(square)


def _solve_linear(mats: np.ndarray, rhs: np.ndarray):
    """Batched solve of small square systems: (step, singular).

    A system is singular when |det| <= 1e-14 max|a_ij|^m; it takes no step.
    """
    return _solve_columns(_entries(mats), [rhs[..., i] for i in range(mats.shape[-1])])


def _solve_columns(a: list, rhs: list):
    """_solve_linear on systems given by their entries a[i][j] and right-hand
    sides rhs[i], each a column over the stack."""
    m = len(a)
    if m == 1:
        det = a[0][0]
    elif m == 2:
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    else:
        mats = _stack_entries(a)
        det = np.linalg.det(mats)
    scale = np.abs(a[0][0])
    for i, j in list(np.ndindex(m, m))[1:]:
        np.maximum(scale, np.abs(a[i][j]), out=scale)
    singular = np.abs(det) <= 1e-14 * scale ** m
    if m > 2:
        regular = np.where(singular[..., None, None], np.eye(m), mats)
        step = np.linalg.solve(regular, np.stack(rhs, axis=-1)[..., None])[..., 0]
        return np.where(singular[..., None], 0.0, step), singular
    any_singular = singular.any()
    safe = np.where(singular, 1.0, det) if any_singular else det
    step = np.empty(det.shape + (m,))
    if m == 1:
        step[..., 0] = rhs[0] / safe
        if any_singular:
            step[singular] = 0.0
        return step, singular
    inv_det = 1.0 / safe
    if any_singular:
        inv_det[singular] = 0.0
    step[..., 0] = inv_det * (a[1][1] * rhs[0] - a[0][1] * rhs[1])
    step[..., 1] = inv_det * (a[0][0] * rhs[1] - a[1][0] * rhs[0])
    return step, singular


def _flood(ctx: FrameContext, h: np.ndarray) -> ComponentRegion:
    """Component of the base cell, labelled on one dense cell window per chart.

    h holds one cell size per parameter axis; a periodic axis rounds it to
    a whole number of cells per period.  Each kept cell records its scale,
    sigma_max(J diag(cell size)) at its center: the width of its image.
    A window starts as the first-order box of the ball's preimage at the
    chart's first seed, plus two cells per side.  The seeds and the valid
    cells whose centers project into the ball are labelled by face
    connectivity (across a periodic seam the window spans), and the seeds'
    components kept; a face they touch moves out by half the window width.
    Kept cells next to an invalid cell are relocated through the
    immersion's locate hook into the chart that continues them (none:
    BoundaryEscape), which is relabelled from all its seeds unless the new
    seed's cell is already kept there.  Rows are each chart's seeds, base
    cell first, then window order.
    """
    f = ctx.immersion
    m = f.m
    r = ctx.radius
    charts = f.charts

    cell_sizes, cell_counts = {}, {}
    for ci, ch in enumerate(charts):
        size = np.array(h, dtype=float)
        counts = np.zeros(m, dtype=np.int64)
        for d in range(m):
            span = ch.hi[d] - ch.lo[d]
            if ch.periodic[d]:
                counts[d] = max(1, int(round(span / h[d])))
                size[d] = span / counts[d]
            else:
                counts[d] = max(1, int(np.floor(span / h[d] + 1e-9)))
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

    def is_kept(ci, cell):
        """Whether chart ci's last labelling kept the (wrapped) cell."""
        return ci in kept and bool(_window_read(kept[ci][1], kept[ci][0], cell_counts[ci],
                                                charts[ci].periodic, np.array([cell]))[0])

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
            raise ValueError("cell size too coarse: the base cell's center leaves the ball")

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
        jac = f.jacobian_chart(ci, center_kept)
        sig, _ = _singular_extremes(jac)
        scale, _ = _singular_extremes(jac * size)
        block = _CellBlock(idx.take(pick, axis=0), center_kept, y[:, :m], y[:, m:], sig, scale,
                           jac)
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
                if tc not in todo and not is_kept(tc, cell):
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
        h_axes=h,
        cell_sizes=cell_sizes,
        cell_counts=cell_counts,
        blocks=blocks,
        scale_max=max(float(b.scale.max()) for b in blocks.values()),
        charts=charts,
        windows=halos,
    )


def component(ctx: FrameContext, h=None) -> ComponentRegion:
    """Connected component of the base point, flooded so that every cell's
    image is at most r/32 wide: sigma_max(J diag(cell sizes)) <= r/32.

    With h omitted, axis d gets the side r / (32 s_d), the stretch s_d
    proportional to the base point's Jacobian column |J e_d| and scaled so
    that the base cell's image is r / (32 * 1.3) wide.  While a region
    cell's image is wider than r/32, every side shrinks by
    (r/32) / (1.05 * widest) and the component is re-flooded.  An explicit
    h, one side for every axis or one per axis (a region's h_axes), is
    flooded as given and refused (ValueError) when a cell's image is wider
    than r/16.
    """
    r = ctx.radius
    if h is not None:
        h = np.full(ctx.immersion.m, h, dtype=float)
        if not (h > 0).all():
            raise ValueError("cell size must be positive")
        region = _flood(ctx, h)
        if region.scale_max > r / 16.0 * (1 + 1e-6):
            raise ValueError(
                f"cell size too coarse: sigma_max(J diag(h)) = {region.scale_max:.3e} "
                f"exceeds r/16 = {r / 16.0:.3e}"
            )
        return region

    jac = ctx.immersion.jacobian(ctx.base_point)
    weight = row_norm(jac.T)
    weight = weight / weight.max()
    sigma, _ = _singular_extremes((jac / weight)[None, ...])
    stretch = float(sigma[0]) * 1.3 * weight
    region = None
    for _ in range(4):
        region = _flood(ctx, r / (32.0 * stretch))
        if region.scale_max <= r / 32.0 * (1 + 1e-6):
            break
        stretch = stretch * (1.05 * region.scale_max / (r / 32.0))
    return region


def _solve_batch(ctx: FrameContext, region: ComponentRegion, targets, seed_charts,
                 seed_coords):
    """Damped Newton for the frame projection equation, batched over targets.

    Solves pi(frame(f(t))) = x per row.  Each iteration steps the rows of
    each chart together.  Steps that leave a chart's valid set are shrunk to
    the boundary and, when pinned there, the iterate is relocated into an
    overlapping chart.  Iterates that stay outside the component region for
    two consecutive iterations, or converge outside it, are abandoned as
    LeftRegion; the rest either converge or report NoConvergence.  A row
    whose Newton system is singular takes no step and ends at once as
    NoConvergence.  Returns each row's status, chart, coords and frame coords.
    """
    f = ctx.immersion
    m = f.m
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    B = targets.shape[0]
    tol = 1e-10 * max(1.0, ctx.radius)
    proj = ctx.iso.rotation.T[:m]

    # Live rows: row id, target, chart, iterate, its frame coords, strikes,
    # and whether the last step was singular.  They start in batch order;
    # each step gathers its chart's unfinished rows as its input, and its
    # outputs are the next live rows.  Finished rows keep their results in
    # done, in the order they finished.
    ids, tgt = np.arange(B), targets
    chart = np.asarray(seed_charts, dtype=np.int64).copy()
    cur = np.atleast_2d(np.asarray(seed_coords, dtype=float)).copy()
    if not B:
        return np.zeros(0, dtype=np.int8), chart, cur, np.zeros((0, f.n))
    y = _per_chart(ctx.frame_coords, chart, cur)
    strikes, singular = np.zeros(B, dtype=np.int8), np.zeros(B, dtype=bool)
    done = []
    for _ in range(NEWTON_MAX_ITER):
        g = [y[:, j] - tgt[:, j] for j in range(m)]
        res = _column_norm(g)
        # converged, or the last step was singular or left the region twice
        stop = (res <= tol) | singular | (strikes >= 2)
        rest = ALL
        if stop.any():
            every = stop.all()
            rows = ALL if every else np.flatnonzero(stop)
            # a singular row took no step; a row that converged just after
            # stepping outside the region left it
            code = np.where(_take(singular, rows), _SOLVE_NO_CONV,
                            np.where(_take(strikes, rows) > 0, _SOLVE_LEFT, _SOLVE_OK))
            done.append((_take(ids, rows), code, *(_take(a, rows) for a in (chart, cur, y))))
            if every:
                break
            rest = np.flatnonzero(~stop)

        # Newton step in the frame projection, one chart's rows at a time;
        # a row relocated into another chart waits a turn.
        steps = []
        for c, group in _chart_groups(_take(chart, rest)):
            rows = group if rest is ALL else _take(rest, group)
            cur_c, tgt_c, res_c = (_take(a, rows) for a in (cur, tgt, res))
            g_c = [_take(col, rows) for col in g]
            jac = f.jacobian_chart(c, cur_c)
            step, singular_c = _solve_columns(product_columns(proj, jac), g_c)

            # Backtracking: rows whose residual did not drop retry at half and
            # then a quarter of the step, keeping their best candidate.
            ch = f.charts[c]
            best = _constrain(ch, cur_c, cur_c - step)
            best_y = ctx.frame_coords(c, best)
            best_res = _column_norm([best_y[:, j] - tgt_c[:, j] for j in range(m)])
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

            # Pinned at a domain boundary: try to continue in another chart.
            chart_c = np.full(len(best), c)
            if f.locate is not None:
                pinned = row_norm(best - cur_c) < 1e-12 * row_norm(step)
                for row in np.flatnonzero(pinned):
                    target = f.locate(f.eval_chart(c, best[row]), exclude=c)
                    if target is not None:
                        chart_c[row] = target.chart
                        best[row] = target.coords
                        best_y[row] = ctx.frame_coords(target.chart, target.coords[None, :])[0]
            steps.append((_take(ids, rows), tgt_c, chart_c, best, best_y,
                          _take(strikes, rows), singular_c))
        ids, tgt, chart, cur, y, strikes, singular = (
            steps[0] if len(steps) == 1 else map(np.concatenate, zip(*steps)))
        # Region escape bookkeeping, in each row's chart after relocation.
        strikes = np.where(_per_chart(region.contains, chart, cur), 0, strikes + 1)
    else:
        # out of iterations: unconverged, or the last step left the region twice
        code = np.where((strikes >= 2) & ~singular, _SOLVE_LEFT, _SOLVE_NO_CONV)
        done.append((ids, code, chart, cur, y))

    status, chart, coords, frame = _in_batch_order(done, B)
    return status.astype(np.int8, copy=False), chart, coords, frame


def _in_batch_order(done: list, B: int) -> list:
    """The finished row sets, each (row ids, then per-row arrays), merged
    into batch order; a single set already in batch order is returned as is."""
    if len(done) == 1 and (done[0][0][1:] > done[0][0][:-1]).all():
        return done[0][1:]
    src = np.empty(B, dtype=np.int64)  # position of each batch row in the sets
    src[np.concatenate([d[0] for d in done])] = np.arange(B)
    return [np.concatenate(col).take(src, axis=0) for col in list(zip(*done))[1:]]


def _constrain(chart, start, cand):
    """Wrap chart's periodic axes; shrink steps from start that exit its valid set."""
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
    return chart.wrap(cand) if any(chart.periodic) else cand


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
    status, chart, coords, frame = _solve_batch(
        ctx, region, x[None, :], np.array([seed.chart]), seed.coords[None, :]
    )
    if status[0] == _SOLVE_LEFT:
        raise LeftRegion(f"iterate exited the component while solving x={x}")
    if status[0] != _SOLVE_OK:
        raise NoConvergence(f"no convergence after {NEWTON_MAX_ITER} iterations at x={x}")
    return ParamPoint(int(chart[0]), coords[0]), frame[0, ctx.immersion.m:]


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
        _write_csv(path, header, ([*x, *u, STATUS_NAMES[s], d] for x, u, s, d in
                                 zip(self.coords, self.heights, self.status, self.du_norm)))


def _write_csv(path, header, rows):
    """CSV of a header and rows, each number written as ``.17g``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else f"{v:.17g}" for v in row])


@dataclass
class NormEstimates:
    """Sup-norm estimates of the graph function and its derivative."""

    c0: float
    lip: float  # inf when a node is vertical


def extract(ctx: FrameContext, N: int, h: float = None) -> GraphSample:
    """Graph sample over the working ball on an N-per-axis grid.

    Nodes are solved in one Newton batch, each seeded one predictor step
    from a region cell whose frame projection lies within about r/32 of it.
    A node's slope du is bottom @ inv(top) of the Jacobian at its parameter
    turned into the frame, R^T J: the slope of the tangent space, whatever
    its basis.  Status semantics: multi_sheet when two separated region
    cells land in one grid cell, vertical when the top block of R^T J is
    singular or sigma_max(du)^2 >= GRAPH_RANK_TOL^-2 - 1 (an orthonormal
    basis's top block then has sigma_min <= GRAPH_RANK_TOL), uncovered when
    the solve failed or never reached the node.  du and du_norm are NaN
    where the node is vertical or uncovered.
    """
    if N < 8:
        raise ValueError("grid resolution must be at least 8")
    region = component(ctx, h)
    return _extract_on_region(ctx, region, N)


def _solve_nodes(ctx: FrameContext, region: ComponentRegion, targets):
    """Solve the frame projections targets in one Newton batch, each row
    seeded one Euler predictor step from a region cell under it.

    The cells' projections are binned on a grid of spacing r/32 over the
    ball.  A bin holds its first cell in row order; an empty bin takes its
    neighbour's, axis by axis in a fixed order, until every target's bin
    holds one.  A row starts at its bin's cell center p, moved by
    (P J)^-1 (x - x_cell) with the cell's stored Jacobian J projected onto
    the frame (Allgower & Georg's predictor) and kept in the chart; a
    singular P J leaves it at p.  Rows that fail stay unsolved.

    Returns (solved, p_chart, p_coords, frame), zero on unsolved rows.
    """
    f = ctx.immersion
    m, r = f.m, ctx.radius
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    shape = (64,) * m

    def bin_of(x):
        return _flat_index(np.floor((x + r) * (32 / r)).clip(0, 63).astype(np.int64), shape)

    def cells(attr):
        """A _CellBlock attribute over the region's cells, in row order."""
        parts = [getattr(b, attr) for b in region.blocks.values()]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    total = region.total_cells
    cell = np.full(shape, total, dtype=np.int64)  # each bin's first cell
    np.minimum.at(cell.reshape(-1), bin_of(cells("x")), np.arange(total))
    cell[cell == total] = -1
    want = bin_of(targets)
    while (cell.take(want) < 0).any():
        for d in range(m):
            for s in (1, -1):
                near = np.roll(cell, s, axis=d)
                near[(slice(None),) * d + ((0 if s == 1 else -1),)] = -1
                cell = np.where(cell < 0, near, cell)
    rows = cell.take(want)

    chart = np.repeat(list(region.blocks), [len(b.idx) for b in region.blocks.values()])
    chart = chart.take(rows)
    center, x, jac = (cells(a).take(rows, axis=0) for a in ("center", "x", "jac"))
    step, _ = _solve_columns(product_columns(ctx.iso.rotation.T[:m], jac), list((targets - x).T))
    seeds = _per_chart(lambda c, start, cand: _constrain(f.charts[c], start, cand),
                       chart, center, center + step)
    status, p_chart, p_coords, frame = _solve_batch(ctx, region, targets, chart, seeds)
    solved = status == _SOLVE_OK
    for out in (p_chart, p_coords, frame):
        out[~solved] = 0
    return solved, p_chart, p_coords, frame


def _extract_on_region(ctx: FrameContext, region: ComponentRegion,
                       N: int) -> GraphSample:
    f = ctx.immersion
    m, k = f.m, f.k
    r = ctx.radius
    a = r * (1 - 2e-9)
    idx_all = _grid_rows([np.arange(N)] * m)
    coords_all = np.linspace(-a, a, N)[idx_all]
    keep = row_norm(coords_all) < r * (1 - 1e-9)
    coords = coords_all.compress(keep, axis=0)
    node_idx = idx_all.compress(keep, axis=0)
    P = len(coords)
    node_map = np.full(len(keep), -1, dtype=np.int64)
    node_map[keep] = np.arange(P)

    solved, p_chart, p_coords, frame = _solve_nodes(ctx, region, coords)
    status = np.where(solved, STATUS_OK, STATUS_UNCOVERED).astype(np.int8)

    # Exact derivatives from the Jacobian at each solved parameter, turned
    # into the frame: the slope B A^-1 of its span needs no orthonormal basis.
    ok_rows = np.flatnonzero(solved)
    rows = ALL if len(ok_rows) == P else ok_rows
    slope, norm = np.zeros((0, k, m)), np.zeros(0)
    if len(ok_rows):
        jac = _per_chart(f.jacobian_chart, _take(p_chart, rows), _take(p_coords, rows))
        slope, vertical, norm = span_slopes(product_columns(ctx.iso.rotation.T, jac))
        status[ok_rows[vertical]] = STATUS_VERTICAL
    du, du_norm = _spread(slope, rows, P), _spread(norm, rows, P)

    _mark_multi_sheet(region, status, node_map, a, N, m)

    return GraphSample(
        radius=r,
        grid_n=N,
        m=m,
        k=k,
        node_idx=node_idx,
        coords=coords,
        heights=frame[:, m:],
        du=du,
        du_norm=du_norm,
        status=status,
        param_chart=p_chart,
        param_coords=p_coords,
        region_h=region.h,
    )


def _spread(values: np.ndarray, rows, P: int) -> np.ndarray:
    """values placed at rows (indices, or ALL) of P rows, NaN elsewhere."""
    if rows is ALL:
        return values
    out = np.full((P,) + values.shape[1:], np.nan)
    out[rows] = values
    return out


def _sheet_gap_keys(region: ComponentRegion, a, N, m) -> np.ndarray:
    """Raveled grid-cell keys where two separated sheets coincide.

    Two region cells binned to the same grid cell whose heights differ by
    more than 10 times the bin's noise scale (the largest, over its cells,
    of the cell's image width and the node spacing times sigma) indicate a
    genuine second sheet; anything below that is within what a single
    sloped sheet can span across one bin.
    """
    if region.total_cells == 0:
        return np.zeros(0, dtype=np.int64)
    if (a, N) in region.sheet_keys:
        return region.sheet_keys[a, N]
    delta = 2 * a / (N - 1)
    x_c = np.concatenate([b.x for b in region.blocks.values()])
    u_c = np.concatenate([b.u for b in region.blocks.values()])
    noise = np.concatenate([np.maximum(b.scale, delta * b.sigma)
                            for b in region.blocks.values()])
    bins = np.clip(np.rint((x_c + a) / delta), 0, N - 1).astype(np.int64)
    key = np.ravel_multi_index(tuple(bins.T), (N,) * m)
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    u_s = u_c[order]
    noise_s = noise[order]
    boundaries = np.nonzero(np.diff(key_s))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(key_s)]])
    u_max = np.maximum.reduceat(u_s, starts, axis=0)
    u_min = np.minimum.reduceat(u_s, starts, axis=0)
    noise_max = np.maximum.reduceat(noise_s, starts)
    gaps = (u_max - u_min).max(axis=1)
    hit = (ends - starts >= 2) & (gaps > 10.0 * noise_max)
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
