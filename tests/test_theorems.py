import math
import re

import numpy as np
import pytest

import tangentgraph as tg
from tangentgraph import (
    Inconclusive,
    InvalidParams,
    PreconditionViolated,
    ProbeHypothesisFailed,
    RankDeficient,
)
from tangentgraph import extractor, radius, theorems

from conftest import (
    cached_max_radius,
    circle_r1,
    fail_outer_certifier_nodes,
    fail_probe_certificate,
)


def certifier_lattice(f, q, r, s):
    """The certifier's nodes (the rho-ball and its axis shifts), solved as
    certify_du_bound solves them; returns (context, targets, solution)."""
    rho = r / 5.0
    delta = rho / s
    mesh = np.meshgrid(*[np.arange(-(s - 1), s)] * f.m, indexing="ij")
    base = np.stack([g.ravel() for g in mesh], axis=-1)
    base = base[np.linalg.norm(base * delta, axis=1) < rho]
    shifted = [base + s * e for e in np.eye(f.m, dtype=int)]
    nodes = np.unique(np.concatenate([base] + shifted), axis=0)
    ctx = tg.FrameContext.at(f, q, r).with_radius(2.2 * rho)
    solution = extractor._solve_nodes(ctx, tg.component(ctx), nodes * delta)
    return ctx, nodes * delta, solution


def test_report_keys_are_pinned():
    # to_dict builds on dataclasses.asdict: a new field must not enter a
    # report unnoticed
    rep = tg.RadiusReport(0.5, tg.KIND_C1, 0.1, 0.2, "bracketed", 1e-3, 256, {})
    assert set(rep.to_dict()) == {"lambda", "kind", "requested_kind", "r_lo", "r_hi",
                                  "status", "tol", "grid_n", "cap", "probes", "trace",
                                  "sample_spec"}
    verdict = tg.TheoremVerdict(1e-5, 1e-5, rep, rep, 0.1, True).to_dict()
    assert set(verdict) == {"lambda", "cap", "r0", "r1_scaled", "margin", "holds"}
    assert verdict["r0"] == verdict["r1_scaled"] == rep.to_dict()
    cert = tg.CertifiedDuBound(0.1, [(np.zeros(1), 0.0, 0.0)], 1e-3)
    assert set(cert.to_dict()) == {"rho", "global_bound", "nodes", "max_certified",
                                   "max_actual"}
    counter = tg.CounterexampleReport(1e-6, 1e-7, 0.2, 1e-5, 62.8, True, 4097)
    assert set(counter.to_dict()) == {"epsilon", "delta", "r", "lambda_gen",
                                      "min_over_angles_max_slope", "verdict",
                                      "angle_count"}


def edge_line(extent):
    """A straight line whose parameter domain ends at +-extent."""
    return tg.zoo_build("graph_of", {"m": 1, "coeff": 0.0, "extent": extent,
                                     "window": 1.0})


class TestLambdaCap:
    # threshold values stated with the regularity theorem
    @pytest.mark.parametrize("m,expected", [(1, 1e-5), (2, 2.5e-6), (10, 1e-7)])
    def test_values(self, m, expected):
        assert tg.lambda_cap(m) == pytest.approx(expected, rel=1e-12)

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            tg.lambda_cap(0)


class TestIterationConstants:
    def test_holds(self):
        assert tg.iteration_constant_check() is True

    def test_ratio_exact(self):
        assert (7.0 / 4.0) ** 3 == 5.359375
        assert (7.0 / 4.0) ** 3 > 5.0

    @pytest.mark.parametrize("m", [1, 2, 3, 10])
    def test_slope_lift_cancels(self, m):
        lift = (8.0 * math.sqrt(m)) ** 3 * 8.0 ** -3 * m ** -1.5
        assert abs(lift - 1.0) <= 1e-12


class TestMainTheorem:
    def test_circle_at_threshold(self, circle):
        Q = circle.sample_points(per_axis=4)
        v = tg.verify_main_theorem(circle, 1e-5, Q)
        assert v.holds
        assert v.cap == pytest.approx(1e-5)
        # height radius about 2e-5, slope radius about 1/sqrt(2)
        assert v.r0.r_hi == pytest.approx(2e-5, rel=0.05)
        assert v.r1_scaled.r_lo == pytest.approx(1 / math.sqrt(2), rel=5e-3)
        assert v.margin == pytest.approx(1 / math.sqrt(2), rel=1e-2)

    def test_brackets_share_each_measurement(self, circle, monkeypatch):
        # both ladders start at r_init: the theorem measures what the two
        # brackets measure apart, each base point and radius once, and
        # reports what they report
        Q = [circle.point(0, [0.4]), circle.point(0, [-2.0])]
        measured = []
        real = radius._read_once

        def read_once(ctx, N):
            measured.append((ctx.base_point.coords.tobytes(), ctx.radius))
            return real(ctx, N)

        monkeypatch.setattr(radius, "_read_once", read_once)
        apart = [tg.max_radius(circle, lam, kind, Q, N=512)
                 for lam, kind in ((1e-5, tg.KIND_C0), (1.0, tg.KIND_C1))]
        measured_apart, measured[:] = measured[:], []
        v = tg.verify_main_theorem(circle, 1e-5, Q, N=512)
        assert sorted(measured) == sorted(set(measured_apart))
        assert len(measured) < len(measured_apart)
        assert repr(v.r0) == repr(apart[0]) and repr(v.r1_scaled) == repr(apart[1])

    def test_flat_unbounded_convention(self):
        f = tg.zoo_build("flat", {"m": 1, "k": 1})
        v = tg.verify_main_theorem(f, 1e-5, f.sample_points(per_axis=3))
        assert v.holds and math.isinf(v.margin)
        assert v.r0.unbounded and v.r1_scaled.unbounded

    def test_rejects_large_height_bound(self, circle):
        with pytest.raises(PreconditionViolated):
            tg.verify_main_theorem(circle, 1.0, circle.sample_points(per_axis=2))

    def test_unbounded_height_radius_fails(self, circle, monkeypatch):
        # no zoo input has an unbounded r0 beside a bounded r1: stub both brackets
        def bracket(f, lam, kind, Q, tol, N):
            status = "unbounded" if kind == tg.KIND_C0 else "bracketed"
            return theorems.RadiusReport(lam, kind, 0.5, 0.6, status, tol, 64, {})

        monkeypatch.setattr(theorems, "max_radius", bracket)
        v = tg.verify_main_theorem(circle, 1e-5, [circle.point(0, [0.0])])
        assert v.margin == -math.inf and v.holds is False

    @pytest.mark.parametrize("r0,r1,verdict", [
        # r1 fails at r_init beside a measured r0: neither side decides
        ((0.5, 0.6, "bracketed"), (0.0, 1e-6, "none_passing"), "r1 none_passing"),
        ((0.0, 1e-6, "none_passing"), (0.0, 1e-6, "none_passing"), "r0 and r1 none_passing"),
        # r0 is below r_init and r1 above it: the order is known
        ((0.0, 1e-6, "none_passing"), (0.5, 0.6, "bracketed"), True),
    ])
    def test_none_passing_radius(self, circle, monkeypatch, r0, r1, verdict):
        def bracket(f, lam, kind, Q, tol, N):
            r_lo, r_hi, status = r0 if kind == tg.KIND_C0 else r1
            return theorems.RadiusReport(lam, kind, r_lo, r_hi, status, tol, 64, {})

        monkeypatch.setattr(theorems, "max_radius", bracket)
        if verdict is True:
            v = tg.verify_main_theorem(circle, 1e-5, [circle.point(0, [0.0])])
            assert v.holds and v.margin == 0.5 - 1e-6
        else:
            with pytest.raises(Inconclusive, match=f"^{verdict}: .* initial radius 1e-06"):
                tg.verify_main_theorem(circle, 1e-5, [circle.point(0, [0.0])])

    def test_torus_positive_margin_at_threshold(self, torus, radius_cache):
        Q = [torus.point(0, [0.0, math.pi]), torus.point(0, [0.0, 0.0])]
        v = tg.verify_main_theorem(torus, tg.lambda_cap(2), Q)
        assert v.holds and v.margin > 0


class TestEnlargement:
    def test_circle_closed_form_case(self, circle):
        # base radius 0.9 * r1(0.1); the lifted pair is (0.1567, 0.8) and the
        # slope radius at 0.8 is 0.8/sqrt(1.64), comfortably larger
        Q = circle.sample_points(per_axis=4)
        r = 0.9 * circle_r1(0.1)
        assert tg.check_enlargement(circle, r, 0.1, Q) is True
        assert 1.75 * r < 0.8 / math.sqrt(1.64)

    def test_flat(self):
        f = tg.zoo_build("flat", {"m": 2, "k": 1})
        Q = f.sample_points(per_axis=3)
        assert tg.check_enlargement(f, 2.0, 1.0 / (8 * math.sqrt(2)), Q)

    def test_slope_bound_hypothesis_enforced(self, circle):
        Q = circle.sample_points(per_axis=2)
        with pytest.raises(PreconditionViolated):
            tg.check_enlargement(circle, 0.01, 0.2, Q)

    def test_base_property_hypothesis_enforced(self, circle):
        Q = circle.sample_points(per_axis=2)
        with pytest.raises(PreconditionViolated):
            tg.check_enlargement(circle, 0.9, 0.1, Q)

    @pytest.fixture
    def verdicts(self, monkeypatch):
        seen, real = [], theorems.is_r_lambda

        def is_r_lambda(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(theorems, "is_r_lambda", is_r_lambda)
        return seen

    @pytest.mark.parametrize("r,inconclusive", [
        (0.5, [True]),  # the base component reaches the edge at 1.2
        (0.2, [False, True]),  # only the lifted one, at 0.35, does
    ])
    def test_inconclusive_property_is_raised(self, verdicts, r, inconclusive):
        g = edge_line(1.2)
        with pytest.raises(Inconclusive, match="boundary of chart 0"):
            tg.check_enlargement(g, r, 0.1, [g.point(0, [0.9])])
        assert [v.inconclusive for v in verdicts] == inconclusive


class TestDistanceBound:
    def test_flat_exact(self):
        f = tg.zoo_build("flat", {"m": 1, "k": 1})
        assert tg.check_distance_bound(f, f.point(0, [0.2]), 0.1, 0.2, 0.1)

    def test_circle_chords(self, circle):
        q = circle.point(0, [0.3])
        assert tg.check_distance_bound(circle, q, 0.19, 0.19, 0.1)

    def test_wiggle_micro_window(self):
        # at the resolution correction's certifiable scale: heights stay in
        # the 2 eps band, so chords beat rho + r * lam with room to spare
        w = tg.zoo_build("wiggle", {})
        q = w.point(0, [2.5e-8])  # a crest of the oscillation
        assert tg.check_distance_bound(w, q, 1e-6, 2e-6, 2.0)

    def test_heights_past_the_bound_fail(self, circle, monkeypatch):
        # without the c0 hypothesis the circle's heights at rho = 0.9 reach
        # 0.56, far past rho + r * lam
        monkeypatch.setattr(theorems, "_require", lambda *args, **kwargs: None)
        assert tg.check_distance_bound(circle, circle.point(0, [0.3]), 0.9, 0.9,
                                       1e-6) is False

    def test_inconclusive_hypothesis_is_raised(self):
        # the c0 witness at q reaches the chart's edge at 1.05
        g = edge_line(1.05)
        with pytest.raises(Inconclusive, match="boundary of chart 0"):
            tg.check_distance_bound(g, g.point(0, [0.9]), 0.5, 0.5, 0.1)

    def test_rho_validation(self, circle):
        with pytest.raises(ValueError):
            tg.check_distance_bound(circle, circle.point(0, [0.0]), 0.3, 0.2,
                                    0.1)

    @pytest.mark.parametrize("N", [0, 4, -5])
    def test_grid_resolution_validation(self, circle, N):
        q = circle.point(0, [0.3])
        with pytest.raises(ValueError, match="grid resolution must be at least 8"):
            tg.check_distance_bound(circle, q, 0.19, 0.19, 0.1, N=N)
        with pytest.raises(ValueError, match="grid resolution must be at least 8"):
            tg.certify_du_bound(circle, q, 1.9e-5, 1e-5, N=N)
        with pytest.raises(ValueError, match="grid resolution must be at least 8"):
            tg.verify_main_theorem(circle, 1e-5, [q], N=N)


class TestInclusion:
    def test_flat_triangle_inequality(self):
        f = tg.zoo_build("flat", {"m": 1, "k": 1})
        assert tg.check_inclusion(f, f.point(0, [0.1]), 0.5, 0.1)

    def test_circle(self, circle):
        assert tg.check_inclusion(circle, circle.point(0, [0.3]), 0.09, 0.1)

    def test_sphere(self, sphere):
        q = sphere.point(4, [0.0, 0.0])
        assert tg.check_inclusion(sphere, q, 0.045, 0.05)

    @pytest.mark.parametrize("name,q,r,lam,lip", [
        ("circle", (0, [0.3]), 0.19, 0.1, "lip 0.193525 > 0.1"),
        ("sphere", (4, [0.0, 0.0]), 0.1, 0.05, "lip 0.100209 > 0.05"),
    ])
    def test_slope_property_required_at_q(self, circle, sphere, name, q, r, lam, lip):
        f = {"circle": circle, "sphere": sphere}[name]
        with pytest.raises(PreconditionViolated, match=lip):
            tg.check_inclusion(f, f.point(*q), r, lam)

    def test_wiggle_without_the_slope_hypothesis_fails(self, monkeypatch):
        # at a steep point the r-component is a fraction of one period, far
        # less than the crest's (2r/5)-component
        monkeypatch.setattr(theorems, "_require", lambda *args, **kwargs: None)
        w = tg.zoo_build("wiggle", {})
        assert tg.check_inclusion(w, w.point(0, [2.5e-8]), 1e-6, 0.1) is False

    def test_slope_cap_enforced(self, circle):
        with pytest.raises(PreconditionViolated):
            tg.check_inclusion(circle, circle.point(0, [0.0]), 0.19, 0.2)


class TestDuCertifier:
    def test_flat_probes_exact(self):
        f = tg.zoo_build("flat", {"m": 2, "k": 1})
        cert = tg.certify_du_bound(f, f.point(0, [0.1, 0.0]), 0.5,
                                   tg.lambda_cap(2))
        assert cert.max_actual() == 0.0
        assert all(c == pytest.approx(0.0, abs=1e-12) for _, c, _ in
                   cert.per_node)

    def test_circle_micro_scale(self, circle):
        # an even and an odd node count per rho
        for s in (4, 3):
            cert = tg.certify_du_bound(circle, circle.point(0, [0.0]), 1.9e-5,
                                       1e-5, nodes_per_rho=s)
            assert cert.global_bound == 8.0 ** -3  # slope ratio is exactly one
            assert cert.rho == pytest.approx(1.9e-5 / 5, rel=1e-8)
            assert len(cert.per_node) == 2 * s - 1
            for _, certified, actual in cert.per_node:
                assert actual <= certified + 1e-15
                assert certified <= cert.global_bound + 1e-15
            assert cert.max_actual() <= 4e-6

    def test_sphere_micro_scale(self, sphere):
        cert = tg.certify_du_bound(sphere, sphere.point(4, [0.0, 0.0]), 4e-6,
                                   2.5e-6)
        assert cert.global_bound == pytest.approx(8.0 ** -3 * 2 ** -1.5,
                                                  rel=1e-12)
        for _, certified, actual in cert.per_node:
            assert actual <= certified + 1e-15
            assert certified <= cert.global_bound + 1e-15

    def test_rejects_large_height_bound(self, circle):
        with pytest.raises(PreconditionViolated):
            tg.certify_du_bound(circle, circle.point(0, [0.0]), 0.1, 0.5)

    def test_stacked_planes_match_per_node_planes(self, circle, sphere, monkeypatch):
        # the sphere case is the m = 2 cap at the bench's 12 nodes per rho,
        # at a point without the symmetry that hides a reordered stack
        cases = [(sphere, sphere.point(0, [0.1, -0.2]), 4e-6, 2.5e-6, 12),
                 (circle, circle.point(0, [0.0]), 1.9e-5, 1e-5, 4)]
        stacked = [repr(tg.certify_du_bound(f, q, r, lam, nodes_per_rho=s))
                   for f, q, r, lam, s in cases]
        monkeypatch.setattr(tg.Subspace, "stack",
                            classmethod(lambda cls, bases: [cls(b) for b in bases]))
        per_node = [repr(tg.certify_du_bound(f, q, r, lam, nodes_per_rho=s))
                    for f, q, r, lam, s in cases]
        assert stacked == per_node

    def test_rejects_one_node_per_rho_before_the_witness(self, circle, monkeypatch):
        def require(*args, **kwargs):
            raise AssertionError("nodes_per_rho must be checked first")

        monkeypatch.setattr(theorems, "_require", require)
        with pytest.raises(ValueError, match="at least 2 nodes per rho"):
            tg.certify_du_bound(circle, circle.point(0, [0.0]), 1.9e-5, 1e-5,
                                nodes_per_rho=1)

    @pytest.mark.parametrize("m", [1, 2])
    def test_lattice_continuation_solves_every_node(self, circle, sphere, m):
        # m = 2 at 12 nodes per rho: three overlapping discs, 960 nodes
        if m == 1:
            f, q, r, s = circle, circle.point(0, [0.0]), 1.9e-5, 4
        else:
            f, q, r, s = sphere, sphere.point(4, [0.0, 0.0]), 4e-6, 12
        ctx, targets, (solved, chart, coords, _) = certifier_lattice(f, q, r, s)
        assert solved.all()
        frame = extractor._per_chart(ctx.frame_coords, chart, coords)
        err = np.linalg.norm(frame[:, :m] - targets, axis=1)
        assert err.max() <= 1e-10 * max(1.0, ctx.radius)

    def test_unlocated_node_is_named(self, circle, monkeypatch):
        fail_outer_certifier_nodes(monkeypatch, 1.9e-5)
        with pytest.raises(PreconditionViolated,
                           match="could not locate the parameter under node"):
            tg.certify_du_bound(circle, circle.point(0, [0.0]), 1.9e-5, 1e-5)

    def test_failed_probe_hypothesis_names_node(self, circle, monkeypatch):
        q = circle.point(0, [0.0])
        cert = tg.certify_du_bound(circle, q, 1.9e-5, 1e-5)
        fail_probe_certificate(monkeypatch, 2)
        with pytest.raises(ProbeHypothesisFailed) as err:
            tg.certify_du_bound(circle, q, 1.9e-5, 1e-5)
        assert np.array_equal(err.value.node, cert.per_node[2][0])
        assert err.value.probe_index == 1

    def test_rank_deficient_node_is_named(self, circle, monkeypatch):
        q = circle.point(0, [0.0])
        x = tg.certify_du_bound(circle, q, 1.9e-5, 1e-5).per_node[3][0]
        real = theorems._singular_extremes

        def extremes(mat):
            smax, smin = real(mat)
            smin = smin.copy()
            smin[3] = 0.0  # the fourth base node
            return smax, smin

        monkeypatch.setattr(theorems, "_singular_extremes", extremes)
        with pytest.raises(RankDeficient, match=re.escape(f"under node {x}")):
            tg.certify_du_bound(circle, q, 1.9e-5, 1e-5)

    def test_precondition_check_runs(self, circle):
        # the height bound fails at this radius, so the hypothesis is refused
        with pytest.raises(PreconditionViolated):
            tg.certify_du_bound(circle, circle.point(0, [0.0]), 0.5, 1e-5)

    def test_csv(self, tmp_path, circle):
        cert = tg.certify_du_bound(circle, circle.point(0, [0.0]), 1.9e-5,
                                   1e-5)
        path = tmp_path / "cert.csv"
        cert.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x1,certified_bound,actual_lip"
        assert len(rows) == len(cert.per_node) + 1


class TestCounterexample:
    def test_reference_parameters(self):
        rep = tg.analyze_counterexample(1e-6, 1e-7, 0.2, angle_grid=1024)
        assert rep.verdict is True
        assert rep.lambda_gen <= 1e-5 * (1 + 1e-12)
        assert rep.lambda_gen >= 0.9e-5
        assert rep.min_over_angles_max_slope == pytest.approx(
            2 * math.pi * 1e-6 / 1e-7, rel=1e-4
        )

    def test_flat_line_is_no_counterexample(self):
        rep = tg.analyze_counterexample(0.0, 1e-7, 0.2, angle_grid=256)
        assert rep.verdict is False
        assert rep.min_over_angles_max_slope == 0.0

    def test_halving_period_doubles_slope(self):
        base = tg.analyze_counterexample(1e-6, 1e-7, 0.2, angle_grid=256)
        ratio = 1.0
        prev = base
        for _ in range(3):
            nxt = tg.analyze_counterexample(1e-6, prev.delta / 2, 0.2,
                                            angle_grid=256)
            ratio = nxt.min_over_angles_max_slope / prev.min_over_angles_max_slope
            assert ratio == pytest.approx(2.0, rel=0.01)
            prev = nxt

    def test_height_band_invariant(self):
        rep = tg.analyze_counterexample(2e-6, 1e-7, 0.1, angle_grid=256)
        assert rep.lambda_gen <= 2 * 2e-6 / 0.1 + 1e-12

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            tg.analyze_counterexample(1e-6, -1e-7, 0.2)
        with pytest.raises(InvalidParams):
            tg.analyze_counterexample(1e-6, 0.1, 0.2)
