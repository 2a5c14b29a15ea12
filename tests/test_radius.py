import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tangentgraph as tg
from tangentgraph import Inconclusive, MonotonicityViolation, extractor, radius

from conftest import cached_max_radius, circle_r0, circle_r1


@pytest.fixture(scope="module")
def circle_q(circle):
    return circle.sample_points(per_axis=4)


def reference_search(holds, r_init, tol):
    """Plain doubling ladder, bisection and four-radius spot check: the
    bracket and probe count max_radius had before it predicted radii."""
    if not holds(r_init):
        return 0.0, r_init, "none_passing", 1
    r_lo, probes = r_init, 1
    while r_lo < radius.RADIUS_CAP * (1 - 1e-12):
        r_next, probes = min(2.0 * r_lo, radius.RADIUS_CAP), probes + 1
        if not holds(r_next):
            r_hi = r_next
            break
        r_lo = r_next
    else:
        return radius.RADIUS_CAP, math.inf, "unbounded", probes
    while r_hi / r_lo - 1.0 > tol:
        mid, probes = 0.5 * (r_lo + r_hi), probes + 1
        r_lo, r_hi = (mid, r_hi) if holds(mid) else (r_lo, mid)
    return r_lo, r_hi, "bracketed", probes + 4


# Measured lip / lam as a function of the radius r and the true threshold t.
MEASURES = {
    "linear": lambda r, t: r / t,
    "x10": lambda r, t: 10.0 * r / t,
    "x0.1": lambda r, t: 0.1 * r / t,
    "cubic": lambda r, t: (r / t) ** 3,
    "steep": lambda r, t: (r / t) ** 30,  # a plain secant stalls on this
    "oscillating": lambda r, t: r / t * (1.0 + 0.5 * math.sin(10 * math.log(r))),
    "none": lambda r, t: None,
    # passes read 10x low, failures carry no number (a second sheet)
    "sheet": lambda r, t: 0.1 * r / t if r <= t else None,
}


def threshold_check(t, measure):
    """A _check_property stand-in: holds for r <= t, one witness carrying
    the modelled lip (none for the "none" measure)."""
    def check(f, r, lam, Q, kind, N=None):
        g, holds = MEASURES[measure](r, t), r <= t
        witnesses = [] if g is None else [
            radius.Witness(Q[0], "pass" if holds else "fail", lip=g * lam)]
        return radius.PropertyVerdict(holds, witnesses)
    return check


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

    def test_vertical_node_fails_the_slope_property(self, circle, monkeypatch):
        # no zoo grid inside a passing radius has a vertical node: mark one
        real = radius._extract_on_region

        def extract(ctx, region, N):
            sample = real(ctx, region, N)
            sample.status[0] = extractor.STATUS_VERTICAL
            return sample

        monkeypatch.setattr(radius, "_extract_on_region", extract)
        v = tg.is_r_lambda(circle, 0.4, 0.5, [circle.point(0, [0.0])])
        assert not v.holds and not v.inconclusive
        assert v.reason == "vertical node"
        assert math.isinf(v.witnesses[0].lip)

    def test_boundary_escape_is_inconclusive(self):
        g = tg.zoo_build("graph_of", {"m": 1, "coeff": 1.0, "extent": 1.05,
                                      "window": 1.0})
        v = tg.is_r_lambda(g, 0.5, 5.0, [g.point(0, [0.9])])
        assert not v.holds and v.inconclusive


class TestMaxRadius:
    def test_circle_slope_radius_closed_form(self, circle, circle_q,
                                             radius_cache):
        # at N = 258 (2 mod 4) ring seeds round onto their own unsolved ring
        # and walk toward the centre
        cases = ((0.1, circle_q, 257), (0.5, circle_q, 257),
                 (0.5, circle.sample_points(per_axis=2), 258))
        for lam, Q, N in cases:
            rep = cached_max_radius(radius_cache, circle, lam, tg.KIND_C1, Q, N=N)
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
        assert rep.probes <= 2

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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.floats(1e-4, 1e2), st.sampled_from(sorted(MEASURES)),
           st.sampled_from([1e-2, 1e-3, 5e-4]))
    def test_predicted_search_matches_bisection(self, circle, circle_q, t,
                                                measure, tol):
        ref = reference_search(lambda r: r <= t,
                               1e-6 * circle.ambient_bbox_diag(), tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radius, "_check_property", threshold_check(t, measure))
            rep = tg.max_radius(circle, 0.5, tg.KIND_C1, circle_q, tol=tol)
        assert (repr(rep.r_lo), repr(rep.r_hi), rep.status) == tuple(
            map(repr, ref[:2])) + (ref[2],)
        assert rep.probes == len(rep.trace)
        assert rep.probes <= ref[3] + 10
        if measure == "linear":
            assert rep.probes <= 9
        if measure in ("x10", "x0.1", "oscillating"):
            assert rep.probes <= ref[3]
        if measure == "none":
            assert rep.probes == ref[3]
        if measure == "sheet":  # one overshoot, then climb from below
            assert sum(r > 2.0 * t for r, *_ in rep.trace) <= 1
            assert rep.probes <= ref[3] + 1

    def test_last_failing_point_is_checked_first(self, circle, monkeypatch):
        # only the third point fails (beyond r = 0.3); it also has the
        # largest lip, which a passing probe's measure must take
        Q = circle.sample_points(per_axis=3)
        scale = {id(Q[0]): 0.5, id(Q[1]): 0.25, id(Q[2]): 1.0}
        evaluated = []  # (holds, witnesses evaluated) per probe

        def check(f, r, lam, Q_, kind, N=None):
            witnesses = []
            for q in Q_:
                ok = q is not Q[2] or r <= 0.3
                witnesses.append(radius.Witness(
                    q, "pass" if ok else "fail", lip=scale[id(q)] * lam * r / 0.3))
                if not ok:
                    break
            evaluated.append((ok, len(witnesses)))
            return radius.PropertyVerdict(ok, witnesses, reason="lip")

        monkeypatch.setattr(radius, "_check_property", check)
        rep = tg.max_radius(circle, 0.5, tg.KIND_C1, Q)
        fails = [n for ok, n in evaluated if not ok]
        assert len(fails) >= 2 and fails[0] == 3
        assert fails[1:] == [1] * (len(fails) - 1)
        assert {q for _, holds, q, _ in rep.trace if not holds} == {2}
        assert rep.probes <= 9

    def test_trace_names_the_deciding_point(self):
        # curvature of the parabola peaks at its vertex, so the vertex,
        # listed second, fails first
        g = tg.zoo_build("graph_of", {"m": 1, "coeff": 1.0})
        Q = [g.point(0, [0.5]), g.point(0, [0.0])]
        rep = tg.max_radius(g, 0.5, tg.KIND_C1, Q, tol=1e-2, N=65)
        assert len(rep.trace) == rep.probes
        assert rep.to_dict()["trace"] == rep.trace
        r, holds, q_index, detail = next(e for e in rep.trace
                                         if e[0] == rep.r_hi)
        assert not holds and q_index == 1 and detail.startswith("lip ")
        assert all(e[1] and e[2] is None and e[3] == "" for e in rep.trace
                   if e[0] == rep.r_lo)

    def test_empty_sample_is_rejected(self, circle):
        with pytest.raises(ValueError, match="empty"):
            tg.is_r_lambda(circle, 0.1, 0.5, [])
        with pytest.raises(ValueError, match="empty"):
            tg.max_radius(circle, 0.5, tg.KIND_C1, [])

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

    @pytest.mark.parametrize("N", [0, 4, -5])
    def test_grid_resolution_validation(self, circle, circle_q, N):
        for check in (tg.is_r_lambda, tg.is_c0_r_lambda):
            with pytest.raises(ValueError, match="grid resolution must be at least 8"):
                check(circle, 0.1, 0.5, circle_q, N=N)
        with pytest.raises(ValueError, match="grid resolution must be at least 8"):
            tg.max_radius(circle, 0.5, tg.KIND_C1, circle_q, N=N)


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
