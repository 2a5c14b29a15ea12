import math

import numpy as np
import pytest

import tangentgraph as tg
from tangentgraph import Inconclusive, MonotonicityViolation, radius

from conftest import cached_max_radius, circle_r0, circle_r1


@pytest.fixture(scope="module")
def circle_q(circle):
    return circle.sample_points(per_axis=4)


class TestPropertyChecks:
    def test_flat_always_holds(self):
        f = tg.zoo_build("flat", {"m": 1, "k": 1})
        Q = f.sample_points(per_axis=3)
        for r, lam in [(0.5, 0.1), (30.0, 1e-4)]:
            assert tg.is_r_lambda(f, r, lam, Q).holds
            assert tg.is_c0_r_lambda(f, r, lam, Q).holds

    def test_circle_slope_threshold(self, circle, circle_q):
        # slope over the ball of radius r is r / sqrt(1 - r^2)
        assert tg.is_r_lambda(circle, 0.40, 0.5, circle_q).holds
        v = tg.is_r_lambda(circle, 0.46, 0.5, circle_q)
        assert not v.holds and not v.inconclusive

    def test_circle_height_threshold(self, circle, circle_q):
        # height over the ball of radius r is 1 - sqrt(1 - r^2)
        assert tg.is_c0_r_lambda(circle, 0.19, 0.1, circle_q, N=2048).holds
        v = tg.is_c0_r_lambda(circle, 0.21, 0.1, circle_q, N=2048)
        assert not v.holds and not v.inconclusive

    def test_circle_two_sheets_fail_all_slopes(self, circle, circle_q):
        v = tg.is_r_lambda(circle, 1.2, 1e6, circle_q)
        assert not v.holds
        assert "multi_sheet" in v.reason

    def test_witnesses_recorded(self, circle, circle_q):
        v = tg.is_r_lambda(circle, 0.40, 0.5, circle_q)
        assert len(v.witnesses) == len(circle_q)
        assert all(w.status == "pass" for w in v.witnesses)
        assert v.witnesses[0].lip == pytest.approx(0.4 / math.sqrt(0.84),
                                                   rel=1e-3)

    def test_boundary_escape_is_inconclusive(self):
        g = tg.zoo_build("graph_of", {"m": 1, "coeff": 1.0, "extent": 1.05,
                                      "window": 1.0})
        v = tg.is_r_lambda(g, 0.5, 5.0, [g.point(0, [0.9])])
        assert not v.holds and v.inconclusive


class TestMaxRadius:
    def test_circle_slope_radius_closed_form(self, circle, circle_q,
                                             radius_cache):
        for lam in (0.1, 0.5):
            rep = cached_max_radius(radius_cache, circle, lam, tg.KIND_C1,
                                    circle_q, N=257)
            exact = circle_r1(lam)
            assert rep.status == "bracketed"
            assert rep.r_hi / rep.r_lo - 1 <= rep.tol
            assert abs(rep.midpoint() - exact) / exact < 2e-3

    def test_circle_height_radius_closed_form(self, circle, circle_q,
                                              radius_cache):
        rep = cached_max_radius(radius_cache, circle, 0.1, tg.KIND_C0,
                                circle_q, N=4096)
        exact = circle_r0(0.1)
        assert abs(rep.midpoint() - exact) / exact < 2e-3

    def test_flat_unbounded_sentinel(self):
        f = tg.zoo_build("flat", {"m": 1, "k": 1})
        rep = tg.max_radius(f, 0.5, tg.KIND_C1, f.sample_points(per_axis=3))
        assert rep.unbounded
        assert rep.to_dict()["kind"] == "unbounded"

    def test_none_passing_sentinel(self):
        w = tg.zoo_build("wiggle", {})
        rep = tg.max_radius(w, 0.1, tg.KIND_C1, w.sample_points(per_axis=5))
        assert rep.status == "none_passing"
        assert rep.r_lo == 0.0

    def test_lambda_monotonicity(self, circle, circle_q, radius_cache):
        lo = cached_max_radius(radius_cache, circle, 0.1, tg.KIND_C1,
                               circle_q, N=257)
        hi = cached_max_radius(radius_cache, circle, 0.5, tg.KIND_C1,
                               circle_q, N=257)
        assert lo.r_lo <= hi.r_hi

    def test_non_monotone_property_aborts(self, circle, circle_q,
                                          monkeypatch):
        # holds up to 0.5 except on a band that only the spot check probes
        def check(f, r, lam, Q, kind, N=None):
            return radius.PropertyVerdict(r <= 0.5 and not 0.25 < r < 0.35, [])

        monkeypatch.setattr(radius, "_check_property", check)
        with pytest.raises(MonotonicityViolation):
            tg.max_radius(circle, 0.5, tg.KIND_C1, circle_q)

    def test_inconclusive_propagates(self):
        g = tg.zoo_build("graph_of", {"m": 1, "coeff": 0.0, "extent": 1.2,
                                      "window": 1.0})
        with pytest.raises(Inconclusive):
            tg.max_radius(g, 0.5, tg.KIND_C1, [g.point(0, [0.9])])

    def test_report_serialization(self, circle, circle_q, radius_cache):
        rep = cached_max_radius(radius_cache, circle, 0.5, tg.KIND_C1,
                                circle_q, N=257)
        d = rep.to_dict()
        assert d["kind"] == "c1" and d["lambda"] == 0.5
        assert d["sample_spec"]["sample_count"] == len(circle_q)
        assert d["r_lo"] < d["r_hi"]

    def test_tolerance_validation(self, circle, circle_q):
        with pytest.raises(ValueError):
            tg.max_radius(circle, 0.5, tg.KIND_C1, circle_q, tol=0.5)
        with pytest.raises(ValueError):
            tg.max_radius(circle, 0.5, "c2", circle_q)


class TestOrderingAndInvariance:
    def test_ordering_circle(self, circle, circle_q, radius_cache):
        r1 = cached_max_radius(radius_cache, circle, 0.1, tg.KIND_C1,
                               circle_q, N=257)
        r0 = cached_max_radius(radius_cache, circle, 0.1, tg.KIND_C0,
                               circle_q, N=4096)
        assert r1.r_lo <= r0.r_hi

    def test_scale_equivariance_exact_sequence(self, circle, circle_q,
                                               radius_cache):
        base = cached_max_radius(radius_cache, circle, 0.5, tg.KIND_C1,
                                 circle_q, N=257)
        doubled = tg.max_radius(tg.scale_immersion(circle, 2.0), 0.5,
                                tg.KIND_C1, circle_q, N=257)
        assert doubled.r_lo / base.r_lo == pytest.approx(2.0, rel=1e-12)
        assert doubled.r_hi / base.r_hi == pytest.approx(2.0, rel=1e-12)
