import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tangentgraph as tg
from tangentgraph import BoundaryEscape, GeometryError, NoConvergence, NotAGraph
from tangentgraph import extractor
from tangentgraph.extractor import (
    STATUS_MULTI_SHEET,
    STATUS_OK,
    STATUS_UNCOVERED,
)


def circle_ctx(circle, r, t0=0.0):
    return tg.FrameContext.at(circle, circle.point(0, [t0]), r)


class TestComponent:
    def test_flat_component_is_a_ball(self):
        f = tg.zoo_build("flat", {"m": 2, "k": 1})
        ctx = tg.FrameContext.at(f, f.point(0, [0.0, 0.0]), 1.0)
        region = tg.component(ctx)
        centers = region.blocks[0].center
        assert (np.linalg.norm(centers, axis=1) < 1.0).all()
        # coverage: cell area accounts for the disk area
        area = len(centers) * np.prod(region.cell_sizes[0])
        assert area == pytest.approx(math.pi, rel=0.02)

    def test_circle_arc_half_radius(self, circle):
        region = tg.component(circle_ctx(circle, 0.5))
        tmax = np.abs(region.blocks[0].center).max()
        assert abs(tmax - math.asin(0.5)) < 2 * region.h

    def test_circle_full_cover_at_large_radius(self, circle):
        region = tg.component(circle_ctx(circle, 1.2))
        # every parameter cell of the periodic chart is in the component
        assert region.total_cells == region.cell_counts[0][0]

    def test_component_determinism(self, circle):
        r1 = tg.component(circle_ctx(circle, 0.5), h=0.01)
        r2 = tg.component(circle_ctx(circle, 0.5), h=0.01)
        assert np.array_equal(r1.blocks[0].idx, r2.blocks[0].idx)

    def test_cell_size_precondition(self, circle):
        with pytest.raises(ValueError):
            tg.component(circle_ctx(circle, 0.5), h=0.2)

    @pytest.mark.parametrize("name,chart,coords,r", [
        ("torus", 0, [0.3, 1.0], 0.2),
        ("sphere", 4, [0.8, 0.1], 0.3),
    ])
    def test_region_cell_sides_reflood_the_same_cells(self, torus, sphere, name, chart,
                                                      coords, r):
        f = {"torus": torus, "sphere": sphere}[name]
        ctx = tg.FrameContext.at(f, f.point(chart, coords), r)
        region = tg.component(ctx)
        again = tg.component(ctx, region.h_axes)
        assert np.array_equal(again.h_axes, region.h_axes)
        assert list(again.blocks) == list(region.blocks)
        for c, block in region.blocks.items():
            assert np.array_equal(again.blocks[c].idx, block.idx)

    def test_boundary_escape(self):
        g = tg.zoo_build("graph_of", {"m": 1, "coeff": 0.0, "extent": 1.05,
                                      "window": 1.0})
        ctx = tg.FrameContext.at(g, g.point(0, [0.9]), 0.5)
        with pytest.raises(BoundaryEscape):
            tg.component(ctx)

    def test_cell_budget(self, circle, monkeypatch):
        monkeypatch.setattr(extractor, "CELL_BUDGET", 10)
        with pytest.raises(GeometryError, match="cell budget"):
            tg.component(circle_ctx(circle, 0.5))


@pytest.fixture(scope="module")
def regions(circle, sphere, torus):
    """Components that cross a periodic seam (torus, circle), wrap a whole
    periodic axis (torus) or span two charts (sphere), keyed by name."""
    cases = {
        "torus-seam": (torus, torus.point(0, [0.3, math.pi - 1e-3]), 0.2),
        "sphere-two-charts": (sphere, sphere.point(4, [0.8, 0.1]), 0.3),
        "circle-seam": (circle, circle.point(0, [3.0]), 0.5),
        "torus-wrap": (torus, torus.point(0, [0.1, 0.2]), 0.9),
    }
    return {
        name: (q, tg.component(tg.FrameContext.at(f, q, r)))
        for name, (f, q, r) in cases.items()
    }


def point_cells(region, chart, coords):
    ch = region.charts[chart]
    idx = np.floor((coords - ch.lo) / region.cell_sizes[chart]).astype(np.int64)
    counts = region.cell_counts[chart]
    return [tuple(int(i) % int(n) if per else int(i)
                  for i, n, per in zip(row, counts, ch.periodic))
            for row in idx]


def halo_cells(region, chart):
    """Brute-force reference: every region cell of the chart grown by one
    cell along each axis, periodic axes wrapped."""
    ch = region.charts[chart]
    counts = region.cell_counts[chart]
    cells = set()
    for row in region.blocks[chart].idx.tolist():
        for off in itertools.product((-1, 0, 1), repeat=len(row)):
            cells.add(tuple((i + o) % int(n) if per else i + o
                            for i, o, n, per in zip(row, off, counts, ch.periodic)))
    return cells


class TestRegionMembership:
    @pytest.mark.parametrize("name", ["torus-seam", "sphere-two-charts",
                                      "circle-seam", "torus-wrap"])
    def test_contains_matches_brute_force(self, regions, name):
        _, region = regions[name]
        rng = np.random.default_rng(3)
        for chart, block in region.blocks.items():
            m = block.idx.shape[1]
            own = set(map(tuple, block.idx.tolist()))
            reference = halo_cells(region, chart)
            # points jittered inside cells up to two cells from the region
            offsets = np.array(list(itertools.product(range(-2, 3), repeat=m)))
            near = (block.idx[:, None, :] + offsets).reshape(-1, m)
            near = near[rng.choice(len(near), min(len(near), 20000), replace=False)]
            jitter = rng.uniform(-0.4, 0.4, near.shape)
            coords = region.charts[chart].lo + (near + 0.5 + jitter) * region.cell_sizes[chart]
            cells = point_cells(region, chart, coords)
            expected = np.array([c in reference for c in cells])
            one_out = np.array([c not in own for c in cells]) & expected
            assert one_out.any() and not expected.all()
            assert np.array_equal(region.contains(chart, coords), expected)

    def test_halo_is_one_cell(self, regions):
        q, region = regions["circle-seam"]
        block = region.blocks[0]
        size = region.cell_sizes[0]
        upper = block.center[np.argmax(np.mod(block.center[:, 0] - q.coords[0] + math.pi,
                                               2 * math.pi))]
        assert region.contains(0, upper + size).all()
        assert not region.contains(0, upper + 2 * size).any()

    def test_untouched_chart_is_outside(self, regions):
        _, region = regions["sphere-two-charts"]
        assert sorted(region.blocks) == [0, 4]
        coords = np.random.default_rng(5).uniform(-0.5, 0.5, (200, 2))
        assert not region.contains(1, coords).any()

    @pytest.mark.parametrize("name", ["torus-seam", "sphere-two-charts",
                                      "torus-wrap"])
    def test_flood_accepts_each_cell_once(self, regions, name):
        q, region = regions[name]
        for block in region.blocks.values():
            assert len(np.unique(block.idx, axis=0)) == len(block.idx)
        first = region.blocks[q.chart].idx[0]
        assert tuple(first) == point_cells(region, q.chart, q.coords[None, :])[0]

    def test_base_point_past_the_last_whole_cell(self, sphere):
        # chart 0 spans [-0.9, 0.9]; this step fits 400 whole cells per axis
        # and leaves a half-cell sliver below 0.9
        h = 1.8 / 400.5
        q = sphere.point(0, [0.9 - 0.25 * h, 0.0])
        region = tg.component(tg.FrameContext.at(sphere, q, 0.2), h=h)
        last = region.cell_counts[0][0] - 1
        assert last == 399
        assert region.blocks[0].idx[0][0] == last
        assert (region.blocks[0].idx[:, 0] <= last).all()
        assert region.contains(0, q.coords)[0]
        assert not region.contains(0, [5.0, 5.0])[0]

    def test_torus_region_crosses_the_seam(self, regions):
        _, region = regions["torus-seam"]
        column = region.blocks[0].idx[:, 1]
        assert column.min() == 0
        assert column.max() == region.cell_counts[0][1] - 1

    def test_torus_region_wraps_its_phi_axis(self, regions):
        _, region = regions["torus-wrap"]
        columns = np.unique(region.blocks[0].idx[:, 1])
        assert len(columns) == region.cell_counts[0][1] == 145

    def test_seed_cell_outside_the_valid_set(self, sphere):
        # the base point lies inside chart 0's disc, its cell centre outside;
        # a seed skips the valid-set test, as it always has
        q = sphere.point(0, [0.636, 0.636])
        region = tg.component(tg.FrameContext.at(sphere, q, 0.2))
        block = region.blocks[0]
        assert not sphere.charts[0].inside(block.center[0])
        assert tuple(block.idx[0]) == point_cells(region, 0, q.coords[None, :])[0]
        assert region.contains(0, q.coords)[0]

    def test_three_dimensional_window_fits_the_budget(self):
        g = tg.zoo_build("graph_of", {"m": 3})
        ctx = tg.FrameContext.at(g, g.point(0, [0.5, -0.3, 0.2]), 0.3)
        region = tg.component(ctx)
        assert region.total_cells == 397_234

    def test_kept_relocated_seed_is_not_relabelled(self, monkeypatch):
        # chart 0's escapes relocate back into chart 4 onto cells chart 4
        # already keeps; relabelling chart 4 from them (as the flood once
        # did) kept these same cells
        sphere = tg.zoo_build("sphere2", {"R": 1.0})
        ctx = tg.FrameContext.at(sphere, sphere.point(4, [0.8, 0.1]), 0.5)
        labelled, real = [], sphere.jacobian_chart

        def jacobian_chart(chart, coords):
            # one batch over the kept cell centres per labelling
            if np.ndim(coords) == 2:
                labelled.append(chart)
            return real(chart, coords)

        monkeypatch.setattr(sphere, "jacobian_chart", jacobian_chart)
        region = tg.component(ctx, h=0.01)
        assert sorted(labelled) == [0, 4]
        assert ({c: (len(b.idx), int(b.idx.sum())) for c, b in region.blocks.items()}
                == {0: (6211, 1480585), 4: (3851, 970885)})


ZOO_FLOODS = {name: tg.zoo_build(name) for name in ("circle", "torus", "sphere2", "graph_of")}


@st.composite
def flood_inputs(draw):
    """(immersion, base point, radius) on the circle, the torus, the sphere
    or the m = 2 paraboloid, the radius up to a wrap of the whole curve or
    tube and, on the bounded paraboloid chart, clear of its edge."""
    name = draw(st.sampled_from(sorted(ZOO_FLOODS)))
    f = ZOO_FLOODS[name]
    angle = st.floats(-math.pi, math.pi)
    if name == "circle":
        return f, f.point(0, [draw(angle)]), draw(st.floats(0.05, 1.5))
    if name == "torus":
        return f, f.point(0, [draw(angle), draw(angle)]), draw(st.floats(0.02, 0.9))
    if name == "graph_of":
        q = f.point(0, draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
        return f, q, draw(st.floats(0.02, 0.3))
    z, lon = draw(st.floats(-1.0, 1.0)), draw(angle)
    ring = math.sqrt(1.0 - z * z)
    q = f.locate(np.array([ring * math.cos(lon), ring * math.sin(lon), z]))
    return f, q, draw(st.floats(0.05, 0.7))


class TestFloodCells:
    @settings(max_examples=16, derandomize=True, deadline=None)
    @given(flood_inputs())
    def test_every_cell_image_is_at_most_r_over_32(self, case):
        f, q, r = case
        ctx = tg.FrameContext.at(f, q, r)
        region = tg.component(ctx)
        for chart, block in region.blocks.items():
            jac = f.jacobian_chart(chart, block.center) * region.cell_sizes[chart]
            scale = np.linalg.svd(jac, compute_uv=False)[:, 0]
            assert scale.max() <= r / 32 * (1 + 1e-6)
            assert block.scale == pytest.approx(scale, rel=1e-12)
        assert region.scale_max == max(b.scale.max() for b in region.blocks.values())
        # square cells whose base cell alone is wider than r/16
        longest = np.linalg.norm(f.jacobian(q), axis=0).max()
        with pytest.raises(ValueError, match="too coarse"):
            tg.component(ctx, h=1.5 * r / (16 * longest))

    @pytest.mark.parametrize("name, chart, coords, r, N, sheets", [
        ("torus", 0, [0.3, math.pi - 1e-3], 0.2, 33, False),
        ("torus", 0, [0.1, 0.2], 0.9, 64, True),
        ("sphere2", 4, [0.8, 0.1], 0.3, 33, False),
        ("circle", 0, [3.0], 0.5, 64, False),
        ("circle", 0, [1.0], 1.2, 64, True),
        ("graph_of", 0, [0.6, -0.4], 0.3, 33, False),
    ])
    def test_halved_cells_resolve_the_same_component(self, name, chart, coords, r, N,
                                                     sheets):
        # the default cells already resolve the component: halving every
        # side finds the same second sheets, and no finer cell falls
        # outside the coarser region
        f = ZOO_FLOODS[name]
        ctx = tg.FrameContext.at(f, f.point(chart, coords), r)
        coarse = tg.component(ctx)
        fine = extractor._flood(ctx, coarse.h_axes / 2)
        for region in (coarse, fine):
            assert extractor.second_sheet_present(region, r, N, f.m) == sheets
        for c, block in fine.blocks.items():
            assert coarse.contains(c, block.center).all()


def bfs_labels(mask, seam):
    """Reference labelling: breadth-first search from each unlabelled cell
    in flat order, so a component's label is its smallest flat index."""
    labels = np.full(mask.shape, -1)
    for start in zip(*np.nonzero(mask)):
        if labels[start] >= 0:
            continue
        labels[start] = np.ravel_multi_index(start, mask.shape)
        queue = [start]
        while queue:
            cell = queue.pop()
            for d, step in itertools.product(range(mask.ndim), (-1, 1)):
                nb = list(cell)
                nb[d] += step
                if not 0 <= nb[d] < mask.shape[d]:
                    if not seam[d]:
                        continue
                    nb[d] %= mask.shape[d]
                nb = tuple(nb)
                if mask[nb] and labels[nb] < 0:
                    labels[nb] = labels[start]
                    queue.append(nb)
    return labels


@st.composite
def label_cases(draw):
    m = draw(st.sampled_from([1, 2, 3]))
    side = {1: 40, 2: 12, 3: 6}[m]
    shape = tuple(draw(st.lists(st.integers(1, side), min_size=m, max_size=m)))
    seam = tuple(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    density = draw(st.floats(0.3, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < density, seam


class TestLabel:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(label_cases())
    def test_matches_breadth_first_search(self, case):
        mask, seam = case
        assert np.array_equal(extractor._label(mask, seam), bfs_labels(mask, seam))


class TestSolveHeight:
    def test_flat_identity(self):
        f = tg.zoo_build("flat", {"m": 2, "k": 1})
        q = f.point(0, [0.0, 0.0])
        ctx = tg.FrameContext.at(f, q, 1.0)
        region = tg.component(ctx)
        p, u = tg.solve_height(ctx, region, [0.2, -0.3], q)
        assert np.allclose(p.coords, [0.2, -0.3], atol=1e-9)
        assert np.allclose(u, 0.0, atol=1e-12)

    def test_circle_closed_form(self, circle):
        # parameter arcsin(x); height 1 - sqrt(1 - x^2), inward positive in
        # the canonical frame at the base point (1, 0)
        ctx = circle_ctx(circle, 0.5)
        region = tg.component(ctx)
        p, u = tg.solve_height(ctx, region, [0.3], circle.point(0, [0.0]))
        assert p.coords[0] == pytest.approx(math.asin(0.3), abs=1e-10)
        assert u[0] == pytest.approx(1.0 - math.sqrt(1.0 - 0.09), abs=1e-10)

    def test_sphere_closed_form(self, sphere):
        q = sphere.point(4, [0.0, 0.0])
        ctx = tg.FrameContext.at(sphere, q, 0.6)
        region = tg.component(ctx)
        p, u = tg.solve_height(ctx, region, [0.3, 0.4], q)
        assert abs(u[0]) == pytest.approx(1.0 - math.sqrt(1.0 - 0.25),
                                          abs=1e-10)

    def test_unreachable_target(self, circle):
        ctx = circle_ctx(circle, 1.2)
        region = tg.component(ctx)
        with pytest.raises((NoConvergence, tg.LeftRegion)):
            tg.solve_height(ctx, region, [1.15], circle.point(0, [0.0]))

    def test_target_past_the_region_left_it(self, circle):
        # the region covers a quarter of the radius; the target is near the rim
        ctx = circle_ctx(circle, 0.5)
        region = tg.component(tg.FrameContext(circle, ctx.base_point, ctx.iso, 0.125))
        with pytest.raises(tg.LeftRegion, match="exited the component"):
            tg.solve_height(ctx, region, [0.45], ctx.base_point)

    def test_converging_past_the_region_left_it(self, sphere):
        # Newton converges within two iterations, before the two-strike rule
        # fires; the converged parameter still lies outside the region
        q = sphere.point(4, [0.0, 0.0])
        ctx = tg.FrameContext.at(sphere, q, 0.5)
        region = tg.component(tg.FrameContext(sphere, q, ctx.iso, 0.125))
        with pytest.raises(tg.LeftRegion, match="exited the component"):
            tg.solve_height(ctx, region, [0.45, 0.0], q)

    def test_one_newton_step_evaluates_the_frame_twice(self, monkeypatch):
        # the flat graph is linear in its parameter, so one step converges;
        # the line search's evaluation at the accepted point is reused
        f = tg.zoo_build("flat", {"m": 2, "k": 1})
        ctx = tg.FrameContext.at(f, f.point(0, [0.0, 0.0]), 1.0)
        region = tg.component(ctx)
        frames, jacobians = [], []
        real_frame, real_jac = tg.FrameContext.frame_coords, f.jacobian_chart

        def frame_coords(self, chart, coords):
            frames.append(chart)
            return real_frame(self, chart, coords)

        def jacobian_chart(chart, coords):
            jacobians.append(chart)
            return real_jac(chart, coords)

        monkeypatch.setattr(tg.FrameContext, "frame_coords", frame_coords)
        monkeypatch.setattr(f, "jacobian_chart", jacobian_chart)
        targets = np.array([[0.2, -0.3], [0.5, 0.1], [-0.4, 0.6]])
        status, _, coords, _ = extractor._solve_batch(
            ctx, region, targets, np.zeros(3, dtype=np.int64), np.zeros((3, 2)))
        assert (status == extractor._SOLVE_OK).all()
        assert np.allclose(coords, targets, atol=1e-12)
        assert len(jacobians) == 1
        assert len(frames) == 2

    def test_relocated_row_is_evaluated_in_its_new_chart(self, sphere, monkeypatch):
        # the target's parameter lies past chart 0's edge: the iterate is
        # pinned there and relocated into chart 2, whose frame coords must
        # be evaluated afresh at the located parameter
        q = sphere.point(0, [0.8, 0.0])
        ctx = tg.FrameContext.at(sphere, q, 0.5)
        region = tg.component(ctx)
        x = ctx.iso.inverse_apply(np.array([math.sqrt(1 - 0.95**2), 0.95, 0.0]))[:2]
        located, frames = [], []
        real_locate, real_frame = sphere.locate, tg.FrameContext.frame_coords

        def locate(ambient, exclude=None):
            target = real_locate(ambient, exclude=exclude)
            if target is not None:
                located.append(target)
            return target

        def frame_coords(self, chart, coords):
            frames.append((chart, np.array(coords, copy=True)))
            return real_frame(self, chart, coords)

        monkeypatch.setattr(sphere, "locate", locate)
        monkeypatch.setattr(tg.FrameContext, "frame_coords", frame_coords)
        p, u = tg.solve_height(ctx, region, x, q)
        assert p.chart == 2 and [t.chart for t in located] == [2]
        first = next(coords for chart, coords in frames if chart == 2)
        assert np.array_equal(first, located[0].coords[None, :])
        assert abs(u[0]) == pytest.approx(1.0 - math.sqrt(1.0 - x @ x), abs=1e-9)
        # reference parameter and height of this solve
        assert np.allclose(p.coords, [0.0, 0.3122498999579297], rtol=0, atol=1e-12)
        assert u[0] == pytest.approx(-0.05265006003523665, rel=0, abs=1e-12)


    def test_singular_row_ends_unsolved_after_one_jacobian(self, monkeypatch):
        # row 0's Jacobian is singular at its seed: it takes no step and ends
        # NO_CONV at once while the flat rows beside it solve in one step
        f = tg.zoo_build("flat", {"m": 2, "k": 1})
        ctx = tg.FrameContext.at(f, f.point(0, [0.0, 0.0]), 1.0)
        region = tg.component(ctx)
        seeds = np.array([[0.1, 0.1], [0.0, 0.0], [0.0, 0.0]])
        rows_seen = []
        real_jac = f.jacobian_chart

        def jacobian_chart(chart, coords):
            jac = real_jac(chart, coords)
            marked = (coords == seeds[0]).all(axis=1)
            rows_seen.append(int(marked.sum()))
            jac[marked, :2] = [[1.0, 2.0], [2.0, 4.0]]
            return jac

        monkeypatch.setattr(f, "jacobian_chart", jacobian_chart)
        targets = np.array([[0.2, -0.3], [0.5, 0.1], [-0.4, 0.6]])
        status, _, coords, _ = extractor._solve_batch(
            ctx, region, targets, np.zeros(3, dtype=np.int64), seeds.copy())
        assert status.tolist() == [extractor._SOLVE_NO_CONV] + [extractor._SOLVE_OK] * 2
        assert rows_seen == [1]
        assert np.array_equal(coords[0], seeds[0])
        assert np.allclose(coords[1:], targets[1:], atol=1e-12)


class TestSolveLinear:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_singular_rows_take_no_step(self, m):
        rng = np.random.default_rng(m)
        rank_deficient = np.ones((m, m))
        rank_deficient[0] = 0.0
        regular = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
        mats = np.stack([rank_deficient, np.zeros((m, m)), regular])
        rhs = rng.standard_normal((3, m))
        step, singular = extractor._solve_linear(mats, rhs)
        assert singular.tolist() == [True, True, False]
        assert (step[:2] == 0.0).all()
        assert np.allclose(step[2], np.linalg.solve(regular, rhs[2]), rtol=1e-12, atol=0)

    def test_singular_rule_is_relative_to_the_matrix(self):
        mats = np.array([[[1e-100, 0.0], [0.0, 1e-100]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]]])
        step, singular = extractor._solve_linear(mats, np.ones((2, 2)))
        assert singular.tolist() == [False, True]
        assert np.allclose(step[0], [1e100, 1e100], rtol=1e-15, atol=0)


class TestExtract:
    def test_flat_zero_graph(self):
        f = tg.zoo_build("flat", {"m": 1, "k": 1})
        ctx = tg.FrameContext.at(f, f.point(0, [0.0]), 1.0)
        sample = tg.extract(ctx, 64)
        assert sample.status_counts() == {"ok": 64, "vertical": 0,
                                          "multi_sheet": 0, "uncovered": 0}
        assert np.abs(sample.heights).max() == 0.0
        assert np.abs(sample.du[np.isfinite(sample.du)]).max() == 0.0

    def test_three_dimensional_paraboloid(self):
        # m = 3 Newton steps go through the general batched linear solve
        g = tg.zoo_build("graph_of", {"m": 3})
        ctx = tg.FrameContext.at(g, g.point(0, [0.0, 0.0, 0.0]), 0.1)
        sample = tg.extract(ctx, 9, h=0.1 / 20)
        assert sample.status_counts() == {"ok": 257, "vertical": 0,
                                          "multi_sheet": 0, "uncovered": 0}
        x = sample.coords
        assert np.abs(sample.heights[:, 0] - 0.5 * (x * x).sum(axis=1)).max() <= 1e-15
        assert np.abs(sample.du[:, 0, :] - x).max() <= 1e-15

    def test_min_resolution(self, circle):
        with pytest.raises(ValueError):
            tg.extract(circle_ctx(circle, 0.5), 4)

    def test_circle_norms_closed_form(self, circle):
        sample = tg.extract(circle_ctx(circle, 0.5), 256)
        assert all(v == STATUS_OK for v in sample.status)
        est = tg.norms(sample)
        lip_exact = 0.5 / math.sqrt(0.75)
        c0_exact = 1.0 - math.sqrt(0.75)
        assert abs(est.lip - lip_exact) < 1e-3
        assert c0_exact <= est.c0 <= c0_exact + 0.5 / 256 * (lip_exact + 1e-6)

    def test_circle_two_sheets_at_large_radius(self, circle):
        # the 22 nodes past |x| = 1 have no parameter under them
        sample = tg.extract(circle_ctx(circle, 1.2), 128)
        assert sample.status_counts() == {"ok": 20, "vertical": 0,
                                          "multi_sheet": 86, "uncovered": 22}
        with pytest.raises(NotAGraph):
            tg.norms(sample)

    def test_region_freed_without_the_cycle_collector(self, circle):
        # a reference cycle through the solve would keep the region and the
        # lattice arrays alive until the cyclic collector runs
        ctx = circle_ctx(circle, 1.2)
        region = tg.component(ctx)
        ref = weakref.ref(region)
        gc.disable()
        try:
            sample = extractor._extract_on_region(ctx, region, 128)
            del region, sample
            assert ref() is None
        finally:
            gc.enable()

    def test_vertical_sentinel_near_limit_radius(self, circle):
        # just below the half-circle limit the rim slope explodes; the norm
        # estimate grows without bound while the graph stays single-sheet
        sample = tg.extract(circle_ctx(circle, 0.999), 256)
        counts = sample.status_counts()
        assert counts["multi_sheet"] == 0 and counts["uncovered"] == 0
        est = tg.norms(sample)
        assert est.lip > 15.0 or math.isinf(est.lip)

    def test_vertical_node_makes_lip_infinite(self, circle):
        # no zoo grid at a valid radius has a vertical node: mark one
        sample = tg.extract(circle_ctx(circle, 0.5), 64)
        finite = tg.norms(sample)
        sample.status[10] = extractor.STATUS_VERTICAL
        est = tg.norms(sample)
        assert math.isinf(est.lip)
        # without a finite slope bound c0 carries no resolution correction
        assert est.c0 == pytest.approx(np.abs(sample.heights).max(), rel=1e-15)
        assert est.c0 < finite.c0

    @pytest.mark.parametrize("name,N", [("circle", 64), ("circle", 66), ("circle", 258),
                                        ("sphere", 34), ("sphere", 130)])
    def test_reconstruction_invariant(self, circle, sphere, name, N):
        # every node is solved, and the frame of its parameter matches
        # (x, u(x)), at grids of both parities
        if name == "circle":
            ctx = circle_ctx(circle, 0.5)
        else:
            ctx = tg.FrameContext.at(sphere, sphere.point(4, [0.1, 0.2]), 0.3)
        sample = tg.extract(ctx, N)
        assert (sample.status == STATUS_OK).all()
        framed = extractor._per_chart(ctx.frame_coords, sample.param_chart,
                                      sample.param_coords)
        expect = np.concatenate([sample.coords, sample.heights], axis=1)
        assert np.abs(framed - expect).max() <= 1e-8 * max(1.0, ctx.radius)

    def test_exact_derivative_matches_finite_differences(self, circle):
        sample = tg.extract(circle_ctx(circle, 0.4), 257)
        u = sample.heights[:, 0]
        du = sample.du[:, 0, 0]
        step = sample.coords[1, 0] - sample.coords[0, 0]
        fd = (u[2:] - u[:-2]) / (2 * step)
        # curvature of the circle graph stays below 10 on this window
        tol = max(1e-4, 10 * (0.4 / 257) ** 2 * 10)
        assert np.abs(fd - du[1:-1]).max() < tol

    def test_exact_derivative_matches_finite_differences_sphere(self, sphere):
        q = sphere.point(4, [0.0, 0.0])
        ctx = tg.FrameContext.at(sphere, q, 0.4)
        sample = tg.extract(ctx, 65)
        # centered differences along the first axis at interior nodes
        n = sample.grid_n
        ids = {tuple(ix): i for i, ix in enumerate(sample.node_idx.tolist())}
        step = None
        checked = 0
        tol = max(1e-4, 10 * (0.4 / 65) ** 2 * 10)
        for (i, j), row in ids.items():
            left, right = ids.get((i - 1, j)), ids.get((i + 1, j))
            if left is None or right is None:
                continue
            if step is None:
                step = sample.coords[right, 0] - sample.coords[row, 0]
            fd = (sample.heights[right, 0] - sample.heights[left, 0]) / (
                2 * step
            )
            assert abs(fd - sample.du[row, 0, 0]) < tol
            checked += 1
        assert checked > 1000

    def test_restriction_monotonicity_on_nested_grids(self, circle):
        # halving the radius with matching node spacing keeps the smaller
        # sample's raw suprema below the larger one's
        big = tg.extract(circle_ctx(circle, 0.8), 129)
        small = tg.extract(circle_ctx(circle, 0.4), 65)
        assert np.abs(small.heights).max() <= np.abs(big.heights).max() + 1e-15
        assert np.nanmax(small.du_norm) <= np.nanmax(big.du_norm) + 1e-15

    def test_csv_round_trip(self, tmp_path, circle):
        sample = tg.extract(circle_ctx(circle, 0.5), 32)
        path = tmp_path / "sample.csv"
        sample.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x1,u1,status,du_norm"
        assert len(rows) == 33
        first = rows[1].split(",")
        assert float(first[0]) == pytest.approx(sample.coords[0, 0])
        assert first[2] == "ok"


def count_newton_work(monkeypatch, f):
    """Count _solve_batch calls and the Jacobian rows evaluated inside them."""
    work = {"calls": 0, "rows": 0, "open": 0}
    real_solve, real_jac = extractor._solve_batch, f.jacobian_chart

    def solve(*args):
        work["calls"] += 1
        work["open"] += 1
        try:
            return real_solve(*args)
        finally:
            work["open"] -= 1

    def jacobian_chart(chart, coords):
        if work["open"]:
            work["rows"] += len(np.atleast_2d(coords))
        return real_jac(chart, coords)

    monkeypatch.setattr(extractor, "_solve_batch", solve)
    monkeypatch.setattr(f, "jacobian_chart", jacobian_chart)
    return work


class TestSolveNodes:
    CASES = {  # (immersion, chart, coords, r, N)
        "circle": ("circle", 0, [0.0], 0.7, 4096),
        "sphere": ("sphere", 4, [0.1, 0.2], 0.3, 66),
        "torus": ("torus", 0, [0.3, 2.0], 0.02, 65),
        "sphere-two-charts": ("sphere", 4, [0.8, 0.1], 0.45, 66),
    }

    @pytest.fixture(scope="class")
    def samples(self, circle, sphere, torus):
        fs = {"circle": circle, "sphere": sphere, "torus": torus}
        out = {}
        for name, (f, chart, coords, r, N) in self.CASES.items():
            f = fs[f]
            ctx = tg.FrameContext.at(f, f.point(chart, coords), r)
            region = tg.component(ctx)
            out[name] = ctx, region, extractor._extract_on_region(ctx, region, N)
        return out

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_node_lies_on_its_frame(self, samples, name):
        ctx, region, sample = samples[name]
        if name == "sphere-two-charts":
            assert len(region.blocks) == 2 and len(set(sample.param_chart)) == 2
        assert (sample.status == STATUS_OK).all()
        framed = extractor._per_chart(ctx.frame_coords, sample.param_chart,
                                      sample.param_coords)
        expect = np.concatenate([sample.coords, sample.heights], axis=1)
        assert np.abs(framed - expect).max() <= 1e-10 * max(1.0, ctx.radius)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_nodes_match_a_solve_from_the_base_point(self, samples, name):
        ctx, region, sample = samples[name]
        f = ctx.immersion
        for i in tg.theorems._subsample(len(sample.coords), 25):
            p, u = tg.solve_height(ctx, region, sample.coords[i], ctx.base_point)
            slope = tg.Subspace(ctx.iso.rotation.T @ tg.tangent_space(f, p).basis).graph
            assert np.abs(u - sample.heights[i]).max() <= 1e-9
            assert np.abs(slope.matrix - sample.du[i]).max() <= 1e-9

    @pytest.mark.parametrize("name,r,N,bound", [("circle", 0.7, 4096, 1.5),
                                                ("sphere", 0.05, 129, 1.1)])
    def test_one_batch_and_few_jacobians_per_node(self, circle, sphere, monkeypatch,
                                                  name, r, N, bound):
        # ring continuation took two batches and 3.14 (circle) and 2.45
        # (sphere) Jacobian rows per node
        f, q = {"circle": (circle, circle.point(0, [0.0])),
                "sphere": (sphere, sphere.point(4, [0.1, 0.2]))}[name]
        work = count_newton_work(monkeypatch, f)
        sample = tg.extract(tg.FrameContext.at(f, q, r), N)
        assert (sample.status == STATUS_OK).all()
        assert work["calls"] == 1
        assert work["rows"] <= bound * len(sample.status)

    def test_seeds_are_deterministic(self, sphere):
        ctx = tg.FrameContext.at(sphere, sphere.point(4, [0.8, 0.1]), 0.45)
        a, b = tg.extract(ctx, 66), tg.extract(ctx, 66)
        for field in ("heights", "du", "status", "param_chart", "param_coords"):
            assert same_bits(getattr(a, field), getattr(b, field))


class TestFrameIndependence:
    def test_circle_and_sphere_within_1e6(self, circle, sphere):
        rng = np.random.default_rng(17)
        cases = [
            (circle, circle.point(0, [0.4]), 0.3, 257),
            (sphere, sphere.point(4, [0.0, 0.0]), 0.3, 128),
        ]
        for f, q, r, n in cases:
            ctx_a = tg.FrameContext.at(f, q, r)
            iso_b = tg.randomize_admissible(ctx_a.iso, f.m, rng)
            ctx_b = tg.FrameContext.at(f, q, r, iso=iso_b)
            na = tg.norms(tg.extract(ctx_a, n))
            nb = tg.norms(tg.extract(ctx_b, n))
            assert abs(na.c0 - nb.c0) <= 1e-6
            assert abs(na.lip - nb.lip) <= 1e-6

    def test_torus_at_grid_limited_tolerance(self, torus):
        # without rotational symmetry the sup over a rotated grid shifts by
        # about the node spacing times the slope-field gradient, so the
        # comparison tolerance scales with r/N instead of the symmetric 1e-6
        rng = np.random.default_rng(23)
        q = torus.point(0, [0.3, 2.0])
        r, n = 0.02, 129
        ctx_a = tg.FrameContext.at(torus, q, r)
        ctx_b = tg.FrameContext.at(
            torus, q, r, iso=tg.randomize_admissible(ctx_a.iso, 2, rng)
        )
        na = tg.norms(tg.extract(ctx_a, n))
        nb = tg.norms(tg.extract(ctx_b, n))
        tol = 20.0 * (r / n)
        assert abs(na.c0 - nb.c0) <= tol
        assert abs(na.lip - nb.lip) <= tol


def broadcast_cell_index(chart, size, coords):
    """_cell_index as written with a broadcast (m,)-vector shift: the
    reference the per-column form must match bit for bit."""
    return np.floor((np.atleast_2d(coords) - chart.lo) / size).astype(np.int64)


def broadcast_window_pos(cells, lo, shape, counts, periodic):
    pos = cells - lo
    ok = np.ones(len(pos), dtype=bool)
    for d, col in enumerate(pos.T):
        if periodic[d]:
            col %= counts[d]
        ok &= (col >= 0) & (col < shape[d])
    return pos, ok


def tuple_lookup_contains(region, chart, coords):
    """ComponentRegion.contains as written with a tuple-of-columns lookup."""
    coords = np.atleast_2d(coords)
    out = np.zeros(len(coords), dtype=bool)
    if chart not in region.windows:
        return out
    lo, halo = region.windows[chart]
    ch = region.charts[chart]
    pos, ok = broadcast_window_pos(
        broadcast_cell_index(ch, region.cell_sizes[chart], coords), lo, halo.shape,
        region.cell_counts[chart], ch.periodic)
    out[ok] = halo[tuple(pos[ok].T)]
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGatherRewrites:
    """Row gathers by take/compress, per-column shifts and flat cell lookups
    give the bits of the fancy-index and broadcast forms they replace."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(["torus-seam", "sphere-two-charts", "circle-seam",
                            "torus-wrap"]), st.integers(0, 2**32 - 1))
    def test_contains_matches_tuple_lookup(self, regions, name, seed):
        # rows near the region, rows far outside its window (several periods
        # away on periodic axes) and charts the region never reached
        _, region = regions[name]
        rng = np.random.default_rng(seed)
        for chart, ch in enumerate(region.charts):
            span = ch.hi - ch.lo
            far = ch.lo + span * rng.uniform(-3.0, 4.0, (300, len(span)))
            coords = far
            if chart in region.blocks:
                block = region.blocks[chart]
                near = block.center[rng.integers(0, len(block.center), 300)]
                near = near + region.cell_sizes[chart] * rng.uniform(-3.0, 3.0, near.shape)
                coords = np.concatenate([near, far])
            got = region.contains(chart, coords)
            ref = tuple_lookup_contains(region, chart, coords)
            assert same_bits(got, ref)
            assert ref.any() == (chart in region.windows)
            assert not ref.all()
            size = region.cell_sizes[chart]
            assert same_bits(extractor._cell_index(ch, size, coords),
                             broadcast_cell_index(ch, size, coords))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 50), st.integers(0, 2**32 - 1))
    def test_window_pos_matches_broadcast(self, m, rows, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 30, m)
        shape = rng.integers(1, 40, m)
        lo = rng.integers(-40, 40, m)
        periodic = tuple(bool(p) for p in rng.integers(0, 2, m))
        cells = rng.integers(-100, 100, (rows, m))
        got = extractor._window_pos(cells, lo, shape, counts, periodic)
        ref = broadcast_window_pos(cells, lo, shape, counts, periodic)
        assert all(same_bits(a, b) for a, b in zip(got, ref))


@pytest.fixture(scope="module")
def sphere_rows(sphere):
    """A sphere batch whose rows relocate past chart 0's edge, start in
    another chart, leave the region, have a singular Newton system, or
    solve plainly; with its solution row by row in the given order."""
    q = sphere.point(0, [0.8, 0.0])
    ctx = tg.FrameContext.at(sphere, q, 0.5)
    region = tg.component(ctx)
    rng = np.random.default_rng(1)
    z = np.linspace(-0.09, 0.09, 5)
    y = 0.93 + 0.04 * rng.random(5)
    edge = np.stack([np.sqrt(1 - y * y - z * z), y, z], axis=-1)
    targets = np.concatenate([
        ctx.iso.inverse_apply(edge)[:, :2],              # relocate into chart 2
        ctx.iso.inverse_apply(edge[:2])[:, :2],          # seeded in chart 2
        rng.uniform(-0.3, 0.3, (6, 2)),                  # plain
        [[0.0, 0.9], [0.85, 0.0], [0.6, 0.6]],           # outside the ball: LEFT
        [[0.1, -0.1]],                                   # singular seed
    ])
    charts = np.zeros(len(targets), dtype=np.int64)
    seeds = np.tile(q.coords, (len(targets), 1))
    for i in (5, 6):
        located = sphere.locate(edge[i - 5], exclude=0)
        charts[i], seeds[i] = located.chart, located.coords
    seeds[-1] = q.coords + [0.0, 0.05]
    return ctx, region, targets, charts, seeds


def solve_rows(sphere, batch, rows):
    """_solve_batch on the given rows, the last row's seed made singular."""
    ctx, region, targets, charts, seeds = batch
    real_jac = sphere.jacobian_chart

    def jacobian_chart(chart, coords):
        jac = real_jac(chart, coords)
        jac[(coords == seeds[-1]).all(axis=1)] = 0.0
        return jac

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sphere, "jacobian_chart", jacobian_chart)
        return extractor._solve_batch(ctx, region, targets[rows], charts[rows],
                                      seeds[rows])


class TestSolveBatchRowOrder:
    @pytest.fixture(scope="class")
    def reference(self, sphere, sphere_rows):
        ref = solve_rows(sphere, sphere_rows, np.arange(len(sphere_rows[2])))
        status, chart = ref[0], ref[1]
        assert (chart[:7] == 2).all() and (status[:13] == extractor._SOLVE_OK).all()
        assert (status[13:16] == extractor._SOLVE_LEFT).all()
        assert status[16] == extractor._SOLVE_NO_CONV
        return ref

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.data())
    def test_rows_solve_alike_in_any_order_and_company(self, sphere, sphere_rows,
                                                        reference, data):
        # any order of any subset of the rows, B = 0 included, gives each
        # row the bits it gets in the whole batch
        P = len(sphere_rows[2])
        rows = np.array(data.draw(st.permutations(range(P))), dtype=np.int64)
        rows = rows[:data.draw(st.integers(0, P))]
        got = solve_rows(sphere, sphere_rows, rows)
        for a, b in zip(got, reference):
            assert same_bits(a, b[rows])


class TestSolveBatchCompany:
    """A row's _solve_batch results, bit for bit, do not depend on the rows
    beside it: rows stay in place and a chart's rows are gathered only as a
    step's input, on one chart or across two."""

    CASES = {  # (immersion, chart, coords, r, N)
        "circle": ("circle", 0, [0.3], 0.7, 256),
        "sphere-two-charts": ("sphere", 4, [0.8, 0.1], 0.45, 34),
        "torus": ("torus", 0, [0.3, 2.0], 0.02, 33),
    }

    @pytest.fixture(scope="class")
    def batches(self, circle, sphere, torus):
        """Per case, a node batch as extraction seeds it, but with every
        third row seeded at its solution (so it converges at its seed) and
        every third at the base point; and the whole batch's solution."""
        fs = {"circle": circle, "sphere": sphere, "torus": torus}
        out = {}
        for name, (f, chart, coords, r, N) in self.CASES.items():
            f = fs[f]
            ctx = tg.FrameContext.at(f, f.point(chart, coords), r)
            region = tg.component(ctx)
            calls = []
            real = extractor._solve_batch

            def solve(*args, real=real, calls=calls):
                calls.append(args[2:])
                return real(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(extractor, "_solve_batch", solve)
                extractor._extract_on_region(ctx, region, N)
            targets, charts, seeds = (np.array(a, copy=True) for a in calls[0])
            status, p_chart, p_coords, _ = real(ctx, region, targets, charts, seeds)
            at_seed = np.zeros(len(targets), dtype=bool)
            at_seed[::3] = status[::3] == extractor._SOLVE_OK
            charts[at_seed], seeds[at_seed] = p_chart[at_seed], p_coords[at_seed]
            charts[1::3], seeds[1::3] = ctx.base_point.chart, ctx.base_point.coords
            batch = ctx, region, targets, charts, seeds
            out[name] = batch, at_seed, extractor._solve_batch(*batch)
        return out

    @staticmethod
    def solve(batch, rows):
        ctx, region, targets, charts, seeds = batch
        return extractor._solve_batch(ctx, region, targets[rows], charts[rows], seeds[rows])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_is_solved(self, batches, name):
        batch, at_seed, (status, chart, _, _) = batches[name]
        assert at_seed.sum() > 10 and (status == extractor._SOLVE_OK).all()
        charts = 2 if name == "sphere-two-charts" else 1
        assert len(set(batch[3])) == len(set(chart)) == charts

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_permuted_batch(self, batches, name):
        batch, _, ref = batches[name]
        rows = np.random.default_rng(7).permutation(len(batch[2]))
        for got, want in zip(self.solve(batch, rows), ref):
            assert same_bits(got, want[rows])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_seed_converged_and_stepped_rows_apart(self, batches, name):
        batch, at_seed, ref = batches[name]
        for part in (at_seed, ~at_seed):
            rows = np.flatnonzero(part)
            for got, want in zip(self.solve(batch, rows), ref):
                assert same_bits(got, want[rows])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_chart_at_a_time(self, batches, name):
        batch, _, ref = batches[name]
        charts = batch[3]
        for chart in np.unique(charts):
            rows = np.flatnonzero(charts == chart)
            for got, want in zip(self.solve(batch, rows), ref):
                assert same_bits(got, want[rows])
