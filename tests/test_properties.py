"""Property tests over random quadratic graphs.

Each example builds ``graph_of`` with the height 0.5 x^T A x + b.x for a
random symmetric A and slope b, picks a base point in the sampling window,
and runs one extraction per immersion at a fixed radius, so an example
stays cheap.  The curvature stays below 1 and the radius below 0.4, so the
local piece is a graph over the tangent ball.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tangentgraph as tg
from tangentgraph import PreconditionViolated, extractor

PROPERTY_SETTINGS = settings(max_examples=12, derandomize=True, deadline=None)
GRID = 24

unit = st.floats(-1.0, 1.0)


@st.composite
def quadratic_graphs(draw):
    """(immersion, base point) for a random quadratic height over R^m."""
    m = draw(st.integers(1, 2))
    a = np.array(draw(st.lists(unit, min_size=m * m, max_size=m * m)))
    a = a.reshape(m, m)
    a = (a + a.T) / (2.0 * max(1.0, np.abs(a).sum()))  # operator norm <= 1
    b = np.array(draw(st.lists(unit, min_size=m, max_size=m)))

    def height(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, a, x) + x @ b

    def height_grad(x):
        return np.asarray(x, dtype=float) @ a + b

    f = tg.zoo_build("graph_of", {"m": m, "extent": 4.0, "window": 1.0,
                                  "height": height, "height_grad": height_grad})
    q = f.point(0, draw(st.lists(unit, min_size=m, max_size=m)))
    return f, q


def graph_sample(ctx):
    sample = tg.extract(ctx, GRID)
    counts = sample.status_counts()
    assert counts["ok"] == len(sample.status), counts
    return sample


def graph_norms(f, q, r, iso=None):
    return tg.norms(graph_sample(tg.FrameContext.at(f, q, r, iso=iso)))


@PROPERTY_SETTINGS
@given(quadratic_graphs(), st.floats(0.05, 0.4), st.floats(0.25, 4.0))
def test_norms_scale_with_the_immersion(graph, r, c):
    f, q = graph
    base = graph_norms(f, q, r)
    scaled = graph_norms(tg.scale_immersion(f, c), q, c * r)
    assert scaled.c0 == pytest.approx(c * base.c0, rel=1e-6, abs=1e-12)
    assert scaled.lip == pytest.approx(base.lip, rel=1e-6, abs=1e-12)


@PROPERTY_SETTINGS
@given(quadratic_graphs(), st.floats(0.05, 0.4), st.integers(0, 2**32 - 1))
def test_norms_invariant_under_rigid_motion(graph, r, seed):
    f, q = graph
    rng = np.random.default_rng(seed)
    iso = tg.Isometry(tg.random_rotation(f.n, rng), rng.standard_normal(f.n))
    base = graph_norms(f, q, r)
    moved = graph_norms(tg.transform_immersion(f, iso), q, r)
    assert moved.c0 == pytest.approx(base.c0, rel=1e-6, abs=1e-12)
    assert moved.lip == pytest.approx(base.lip, rel=1e-6, abs=1e-12)


@PROPERTY_SETTINGS
@given(quadratic_graphs(), st.floats(0.05, 0.4))
def test_graph_function_reconstructs_the_immersion(graph, r):
    # iso(x, u(x)) = f(p) up to the Newton tolerance on the frame projection
    f, q = graph
    ctx = tg.FrameContext.at(f, q, r)
    sample = graph_sample(ctx)
    rebuilt = ctx.iso.apply(np.concatenate([sample.coords, sample.heights], axis=1))
    image = f.eval_chart(q.chart, sample.param_coords)
    assert (sample.param_chart == q.chart).all()
    err = np.linalg.norm(rebuilt - image, axis=1)
    rounding = 1e-14 * (1.0 + np.linalg.norm(image, axis=1))
    assert (err <= 1e-10 * max(1.0, r) + rounding).all(), err.max()


@PROPERTY_SETTINGS
@given(quadratic_graphs(), st.floats(0.05, 0.4))
def test_exact_du_matches_central_differences(graph, r):
    # a central difference over a span s is off by s^2 |u'''| / 24; the
    # examples reach |u'''| of about 1 and the bound allows 6
    f, q = graph
    sample = graph_sample(tg.FrameContext.at(f, q, r))
    node_map = np.full((GRID,) * f.m, -1)
    node_map[tuple(sample.node_idx.T)] = np.arange(len(sample.node_idx))
    checked = 0
    for j, e in enumerate(np.eye(f.m, dtype=int)):
        plus, minus = sample.node_idx + e, sample.node_idx - e
        rows = np.nonzero((plus < GRID).all(axis=1) & (minus >= 0).all(axis=1))[0]
        hi, lo = node_map[tuple(plus[rows].T)], node_map[tuple(minus[rows].T)]
        both = (hi >= 0) & (lo >= 0)
        rows, hi, lo = rows[both], hi[both], lo[both]
        span = sample.coords[hi, j] - sample.coords[lo, j]
        fd = (sample.heights[hi, 0] - sample.heights[lo, 0]) / span
        assert np.abs(fd - sample.du[rows, 0, j]).max() <= 0.25 * span.max()**2
        checked += len(rows)
    assert checked >= 10


@PROPERTY_SETTINGS
@given(quadratic_graphs(), st.floats(0.05, 0.4), st.integers(0, 2**32 - 1))
def test_norms_independent_of_the_admissible_frame(graph, r, seed):
    # the grid turns with the frame, so the sup moves by up to the node
    # spacing times the slope gradient: the tolerance of the torus test
    f, q = graph
    ctx = tg.FrameContext.at(f, q, r)
    iso = tg.randomize_admissible(ctx.iso, f.m, np.random.default_rng(seed))
    base = graph_norms(f, q, r)
    turned = graph_norms(f, q, r, iso=iso)
    tol = 20.0 * (r / GRID)
    assert abs(turned.c0 - base.c0) <= tol
    assert abs(turned.lip - base.lip) <= tol


def refuses(check) -> bool:
    try:
        check()
    except PreconditionViolated:
        return True
    return False


@PROPERTY_SETTINGS
@given(quadratic_graphs(), st.floats(0.25, 10.0))
def test_precondition_refusal_matches_height_property(graph, s):
    # r = s * lam straddles the height-bound radius, about lam / curvature
    f, q = graph
    lam = tg.lambda_cap(f.m)
    r = s * lam
    holds = tg.is_c0_r_lambda(f, r, lam, [q], N=GRID).holds
    assert refuses(lambda: tg.certify_du_bound(f, q, r, lam, N=GRID)) == (not holds)
    assert refuses(lambda: tg.check_distance_bound(f, q, r, r, lam, N=GRID)) == (
        not holds)


@settings(max_examples=4, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_chart_component_invariant_under_rigid_motion(seed):
    # this sphere component spans charts 0 and 4, so the moved immersion
    # floods and solves through its transformed locate hook; the moved
    # frame is the rigid motion after the original one
    sphere = tg.zoo_build("sphere2", {"R": 1.0})
    q = sphere.point(4, [0.8, 0.1])
    rng = np.random.default_rng(seed)
    motion = tg.Isometry(tg.random_rotation(3, rng), rng.standard_normal(3))
    ctx = tg.FrameContext.at(sphere, q, 0.5)
    moved = tg.FrameContext.at(tg.transform_immersion(sphere, motion), q, 0.5,
                               iso=motion.compose(ctx.iso))
    regions, norms = [], []
    for c in (ctx, moved):
        region = tg.component(c)
        sample = extractor._extract_on_region(c, region, 17)
        assert sample.status_counts()["ok"] == len(sample.status)
        assert set(sample.param_chart.tolist()) == {0, 4}
        regions.append(region)
        norms.append(tg.norms(sample))
    assert ({c: len(b.idx) for c, b in regions[0].blocks.items()}
            == {c: len(b.idx) for c, b in regions[1].blocks.items()})
    sigma_max = [max(b.sigma.max() for b in region.blocks.values()) for region in regions]
    assert sigma_max[1] == pytest.approx(sigma_max[0], rel=1e-12)
    assert norms[1].c0 == pytest.approx(norms[0].c0, rel=1e-12)
    assert norms[1].lip == pytest.approx(norms[0].lip, rel=1e-12)
