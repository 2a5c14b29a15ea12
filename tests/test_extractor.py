import math

import numpy as np
import pytest

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
        region = tg.component(circle_ctx(circle, 1.2), refine_check=False)
        # every parameter cell of the periodic chart is in the component
        assert region.total_cells == region.cell_counts[0][0]

    def test_component_determinism(self, circle):
        r1 = tg.component(circle_ctx(circle, 0.5), h=0.01)
        r2 = tg.component(circle_ctx(circle, 0.5), h=0.01)
        assert np.array_equal(r1.blocks[0].idx, r2.blocks[0].idx)

    def test_cell_size_precondition(self, circle):
        with pytest.raises(ValueError):
            tg.component(circle_ctx(circle, 0.5), h=0.2)

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
        region = tg.component(ctx, refine_check=False)
        p, u = tg.solve_height(ctx, region, [0.3, 0.4], q)
        assert abs(u[0]) == pytest.approx(1.0 - math.sqrt(1.0 - 0.25),
                                          abs=1e-10)

    def test_unreachable_target(self, circle):
        ctx = circle_ctx(circle, 1.2)
        region = tg.component(ctx, refine_check=False)
        with pytest.raises((NoConvergence, tg.LeftRegion)):
            tg.solve_height(ctx, region, [1.15], circle.point(0, [0.0]))


class TestExtract:
    def test_flat_zero_graph(self):
        f = tg.zoo_build("flat", {"m": 1, "k": 1})
        ctx = tg.FrameContext.at(f, f.point(0, [0.0]), 1.0)
        sample = tg.extract(ctx, 64)
        assert sample.status_counts() == {"ok": 64, "vertical": 0,
                                          "multi_sheet": 0, "uncovered": 0}
        assert np.abs(sample.heights).max() == 0.0
        assert np.abs(sample.du[np.isfinite(sample.du)]).max() == 0.0

    def test_min_resolution(self, circle):
        with pytest.raises(ValueError):
            tg.extract(circle_ctx(circle, 0.5), 4)

    def test_circle_norms_closed_form(self, circle):
        sample = tg.extract(circle_ctx(circle, 0.5), 256, refine_check=False)
        assert all(v == STATUS_OK for v in sample.status)
        est = tg.norms(sample)
        lip_exact = 0.5 / math.sqrt(0.75)
        c0_exact = 1.0 - math.sqrt(0.75)
        assert abs(est.lip - lip_exact) < 1e-3
        assert c0_exact <= est.c0 <= c0_exact + 0.5 / 256 * (lip_exact + 1e-6)

    def test_circle_two_sheets_at_large_radius(self, circle):
        sample = tg.extract(circle_ctx(circle, 1.2), 128, refine_check=False)
        counts = sample.status_counts()
        assert counts["multi_sheet"] > 0
        with pytest.raises(NotAGraph):
            tg.norms(sample)

    def test_vertical_sentinel_near_limit_radius(self, circle):
        # just below the half-circle limit the rim slope explodes; the norm
        # estimate grows without bound while the graph stays single-sheet
        sample = tg.extract(circle_ctx(circle, 0.999), 256, refine_check=False)
        counts = sample.status_counts()
        assert counts["multi_sheet"] == 0 and counts["uncovered"] == 0
        est = tg.norms(sample)
        assert est.lip > 15.0 or math.isinf(est.lip)

    def test_reconstruction_invariant(self, circle):
        # frame of the solved parameter matches (x, u(x)) at every ok node
        ctx = circle_ctx(circle, 0.5)
        sample = tg.extract(ctx, 64, refine_check=False)
        ok = sample.status == STATUS_OK
        pts = circle.eval_chart(0, sample.param_coords[ok])
        framed = ctx.iso.inverse_apply(pts)
        expect = np.concatenate([sample.coords[ok], sample.heights[ok]],
                                axis=1)
        assert np.abs(framed - expect).max() <= 1e-8 * max(1.0, ctx.radius)

    def test_exact_derivative_matches_finite_differences(self, circle):
        sample = tg.extract(circle_ctx(circle, 0.4), 257, refine_check=False)
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
        sample = tg.extract(ctx, 65, refine_check=False)
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
        big = tg.extract(circle_ctx(circle, 0.8), 129, refine_check=False)
        small = tg.extract(circle_ctx(circle, 0.4), 65, refine_check=False)
        assert np.abs(small.heights).max() <= np.abs(big.heights).max() + 1e-15
        assert np.nanmax(small.du_norm) <= np.nanmax(big.du_norm) + 1e-15

    def test_csv_round_trip(self, tmp_path, circle):
        sample = tg.extract(circle_ctx(circle, 0.5), 32, refine_check=False)
        path = tmp_path / "sample.csv"
        sample.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x1,u1,status,du_norm"
        assert len(rows) == 33
        first = rows[1].split(",")
        assert float(first[0]) == pytest.approx(sample.coords[0, 0])
        assert first[2] == "ok"


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
            na = tg.norms(tg.extract(ctx_a, n, refine_check=False))
            nb = tg.norms(tg.extract(ctx_b, n, refine_check=False))
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
        na = tg.norms(tg.extract(ctx_a, n, refine_check=False))
        nb = tg.norms(tg.extract(ctx_b, n, refine_check=False))
        tol = 20.0 * (r / n)
        assert abs(na.c0 - nb.c0) <= tol
        assert abs(na.lip - nb.lip) <= tol
