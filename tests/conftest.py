import math

import numpy as np
import pytest

import tangentgraph as tg
from tangentgraph import PreconditionViolated, extractor, theorems


@pytest.fixture(scope="session")
def circle():
    return tg.zoo_build("circle", {"R": 1.0})


@pytest.fixture(scope="session")
def sphere():
    return tg.zoo_build("sphere2", {"R": 1.0})


@pytest.fixture(scope="session")
def torus():
    return tg.zoo_build("torus", {"R_maj": 2.0, "r_min": 0.5})


@pytest.fixture(scope="session")
def radius_cache():
    """Shared store for radius reports reused across test modules."""
    return {}


def cached_max_radius(cache, f, lam, kind, Q, tol=1e-3, N=None, key=None):
    key = key or (f.name, str(sorted(f.params.items())), lam, kind, tol, N,
                  len(Q))
    if key not in cache:
        cache[key] = tg.max_radius(f, lam, kind, Q, tol=tol, N=N)
    return cache[key]


def circle_r1(lam):
    """Slope-bound radius of the unit circle: lam / sqrt(1 + lam^2)."""
    return lam / math.sqrt(1.0 + lam * lam)


def circle_r0(lam):
    """Height-bound radius of the unit circle: 2 lam / (1 + lam^2)."""
    return 2.0 * lam / (1.0 + lam * lam)


def torus_inner_outer(torus):
    return [torus.point(0, [0.0, math.pi]), torus.point(0, [0.0, 0.0])]


def sphere_q_pair(sphere):
    return [sphere.point(4, [0.0, 0.0]), sphere.point(0, [0.1, -0.2])]


def fail_outer_certifier_nodes(monkeypatch, r):
    """Make the certifier's lattice solve, at radius 0.44 r below the c0
    precheck's r, leave its outermost ring: 7 delta = 0.35 r out at the
    default 4 nodes per rho."""
    real = extractor._solve_batch

    def solve(ctx, region, targets, seed_charts, seed_coords):
        status, chart, coords, heights = real(ctx, region, targets,
                                              seed_charts, seed_coords)
        if ctx.radius < r:
            status[np.abs(targets).max(axis=1) > 0.325 * r] = extractor._SOLVE_LEFT
        return status, chart, coords, heights

    monkeypatch.setattr(extractor, "_solve_batch", solve)


def fail_probe_certificate(monkeypatch, node):
    """Make the certifier's probe certificate at its node-th call (from 0)
    report a failed hypothesis on probe 1."""
    real = theorems.graph_matrix_from_probes
    calls = []

    def certificate(e, probes, L):
        calls.append(None)
        if len(calls) == node + 1:
            raise PreconditionViolated("probe 1 too far from its axis point",
                                       index=1)
        return real(e, probes, L)

    monkeypatch.setattr(theorems, "graph_matrix_from_probes", certificate)
