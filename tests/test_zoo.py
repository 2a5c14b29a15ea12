import math

import numpy as np
import pytest

import tangentgraph as tg
from tangentgraph import InvalidParams, RankDeficient, UnknownEntry


ALL_ENTRIES = ["flat", "circle", "sphere2", "torus", "helix", "graph_of", "wiggle"]


def test_zoo_names():
    assert sorted(tg.ZOO) == sorted(ALL_ENTRIES)


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        tg.zoo_build("moebius")


@pytest.mark.parametrize("name,params", [
    ("circle", {"R": -1.0}),
    ("sphere2", {"R": 0.0}),
    ("torus", {"R_maj": 0.5, "r_min": 0.5}),
    ("wiggle", {"delta": 0.0}),
    ("graph_of", {"extent": 0.5, "window": 1.0}),
])
def test_invalid_params(name, params):
    with pytest.raises(InvalidParams):
        tg.zoo_build(name, params)


def test_unknown_param_key_rejected():
    with pytest.raises(InvalidParams):
        tg.zoo_build("circle", {"radius": 1.0})


class TestTangentSpace:
    def test_flat(self):
        f = tg.zoo_build("flat", {"m": 2, "k": 1})
        e = tg.tangent_space(f, f.point(0, [0.3, -0.4]))
        assert e == tg.Subspace(np.eye(3)[:, :2])

    def test_circle_at_zero(self, circle):
        e = tg.tangent_space(circle, circle.point(0, [0.0]))
        assert e == tg.Subspace(np.array([[0.0], [1.0]]))

    def test_helix_at_zero(self):
        h = tg.zoo_build("helix", {})
        e = tg.tangent_space(h, h.point(0, [0.0]))
        expected = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        assert e == tg.Subspace(expected[:, None])

    def test_rank_deficient_rejected(self):
        # a pinched curve: eval collapses at t=0
        bad = tg.zoo_build("graph_of", {
            "m": 1, "extent": 2.0, "window": 1.0,
            "height": lambda x: np.asarray(x)[..., 0] ** 2,
            "height_grad": lambda x: 2 * np.asarray(x),
        })
        # break the first jacobian column by zero-scaling the chart
        sq = tg.scale_immersion(bad, 1.0)
        sq.charts[0].jacobian = lambda x: np.zeros(
            np.asarray(x).shape[:-1] + (2, 1)
        )
        with pytest.raises(RankDeficient):
            tg.tangent_space(sq, sq.point(0, [0.0]))


class TestEntries:
    def test_circle_on_unit_circle(self, circle):
        for p in circle.sample_points(per_axis=16):
            assert np.linalg.norm(circle.eval(p)) == pytest.approx(1.0)

    def test_sphere_radius_and_tangency(self, sphere):
        pts = sphere.sample_points(per_axis=5)
        assert pts, "sampler empty"
        for p in pts:
            x = sphere.eval(p)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            jac = sphere.jacobian(p)
            # position vector orthogonal to both tangent directions
            assert np.abs(x @ jac).max() < 1e-10

    def test_wiggle_max_slope(self):
        w = tg.zoo_build("wiggle", {"eps": 1e-6, "delta": 1e-7})
        ts = np.linspace(-1e-7, 1e-7, 4001)[:, None]
        slopes = w.jacobian_chart(0, ts)[:, 1, 0]
        assert np.abs(slopes).max() == pytest.approx(2 * math.pi * 1e-6 / 1e-7,
                                                     rel=1e-6)

    def test_wiggle_height_band(self):
        # heights stay within 2 eps of any horizontal line through the curve
        eps = 1e-6
        w = tg.zoo_build("wiggle", {"eps": eps, "delta": 1e-7})
        ts = np.linspace(-0.4, 0.4, 20011)[:, None]
        heights = w.eval_chart(0, ts)[:, 1]
        for h0 in heights[::2000]:
            assert np.abs(heights - h0).max() <= 2 * eps + 1e-18

    def test_torus_inner_equator(self, torus):
        p = torus.point(0, [0.0, math.pi])
        assert np.allclose(torus.eval(p), [1.5, 0.0, 0.0], atol=1e-12)

    def test_helix_pitch(self):
        h = tg.zoo_build("helix", {"pitch": 0.5})
        assert np.allclose(h.eval(h.point(0, [2.0])),
                           [math.cos(2.0), math.sin(2.0), 1.0])


class TestChartConsistency:
    STEP = 1e-6

    @pytest.mark.parametrize("name,params", [
        ("flat", {"m": 2, "k": 2}),
        ("circle", {"R": 1.0}),
        ("sphere2", {"R": 1.0}),
        ("torus", {"R_maj": 2.0, "r_min": 0.5}),
        ("helix", {"pitch": 1.0}),
        ("graph_of", {"m": 2, "coeff": 1.0}),
    ])
    def test_jacobian_matches_finite_differences(self, name, params):
        f = tg.zoo_build(name, params)
        for p in f.sample_points(per_axis=4):
            self._check(f, p, self.STEP)

    def test_wiggle_jacobian_at_feature_scale(self):
        # the default step cannot resolve oscillations far below it; the
        # consistency check for this entry uses a period-scaled step
        w = tg.zoo_build("wiggle", {"eps": 1e-6, "delta": 1e-7})
        for p in w.sample_points(per_axis=4):
            self._check(w, p, 1e-7 * 1e-4)

    @staticmethod
    def _check(f, p, step):
        jac = f.jacobian(p)
        for d in range(f.m):
            hi = p.coords.copy()
            lo = p.coords.copy()
            hi[d] += step
            lo[d] -= step
            col = (f.eval_chart(p.chart, hi) - f.eval_chart(p.chart, lo)) / (
                2 * step
            )
            denom = max(1.0, np.linalg.norm(jac[:, d]))
            assert np.linalg.norm(col - jac[:, d]) / denom < 1e-5


class TestSphereChartOverlap:
    def test_overlapping_charts_agree(self, sphere):
        # same surface point located in a second chart gives a span-equal
        # tangent space and an ambient match to machine precision
        checked = 0
        for p in sphere.sample_points(per_axis=7):
            x = sphere.eval(p)
            other = sphere.locate(x, exclude=p.chart)
            if other is None:
                continue
            assert np.linalg.norm(sphere.eval(other) - x) < 1e-9
            assert tg.tangent_space(sphere, p) == tg.tangent_space(sphere, other)
            checked += 1
        assert checked > 50


class TestSamplerInvariants:
    @pytest.mark.parametrize("name", ALL_ENTRIES)
    def test_full_rank_at_samples(self, name):
        f = tg.zoo_build(name)
        for p in f.sample_points(per_axis=4):
            svals = np.linalg.svd(f.jacobian(p), compute_uv=False)
            assert svals.min() > 1e-8

    def test_sampler_deterministic(self, circle):
        a = circle.sample_points(per_axis=8)
        b = circle.sample_points(per_axis=8)
        assert len(a) == len(b) == 8
        for p, q in zip(a, b):
            assert p.chart == q.chart and np.array_equal(p.coords, q.coords)

    def test_zero_per_axis_is_an_empty_sample(self, circle):
        assert circle.sample_points(per_axis=0) == []

    @pytest.mark.parametrize("name", ["circle", "torus", "sphere2", "graph_of"])
    def test_negative_per_axis_is_rejected(self, name):
        with pytest.raises(ValueError, match="per_axis must be non-negative"):
            tg.zoo_build(name).sample_points(per_axis=-1)


class TestTransforms:
    def test_rigid_motion_moves_image(self, circle):
        rng = np.random.default_rng(1)
        iso = tg.Isometry(tg.random_rotation(2, rng), np.array([3.0, -1.0]))
        moved = tg.transform_immersion(circle, iso)
        p = circle.point(0, [0.7])
        assert np.allclose(moved.eval(p), iso.apply(circle.eval(p)), atol=1e-12)

    def test_scaling(self, circle):
        doubled = tg.scale_immersion(circle, 2.0)
        p = circle.point(0, [0.7])
        assert np.allclose(doubled.eval(p), 2.0 * circle.eval(p))
        with pytest.raises(InvalidParams):
            tg.scale_immersion(circle, -1.0)
