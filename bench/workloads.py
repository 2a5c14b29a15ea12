"""The benchmark's workloads: seeded inputs, one verdict each, and its gate.

Every verdict goes through a public entry point (``max_radius``,
``verify_main_theorem`` or ``certify_du_bound``) and receives only the
generated ``ParamPoint``s.  Each workload stresses different layers:

- ``sphere-c1`` extracts on 13k-node 2-D grids, so solve, extract and
  contains carry most of the weight;
- ``circle-theorem`` runs two brackets over large 1-D Newton batches, so
  solve dominates and flood is small;
- ``torus-c1`` floods tens of thousands of anisotropic cells per witness,
  so flood dominates;
- ``sphere-ducert`` bypasses the radius layer: about a thousand tiny
  solves plus the certifier's own seed search and probe certificates.

Base points come from the R2 low-discrepancy sequence with a seeded
random start.  Each point is uniform on its domain, as with independent
draws, but consecutive points cover the domain evenly, so the cost mix of
a run (points where the chart stretches more flood more cells) does not
depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import tangentgraph as tg

INPUTS_PER_RUN = 64  # verdict i uses input i mod INPUTS_PER_RUN

_PLASTIC = 1.324717957244746  # x^3 = x + 1; generates the R2 sequence


def spread_unit_square(rng, count: int) -> np.ndarray:
    """count points of [0, 1)^2: R2 sequence from a uniform random start."""
    step = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])
    return (rng.random(2) + np.arange(count)[:, None] * step) % 1.0


def sphere_points(f, rng, count: int) -> list:
    """Points uniform on the sphere (z and longitude uniform), in a chart."""
    uv = spread_unit_square(rng, count)
    z = 2.0 * uv[:, 0] - 1.0
    lon = 2.0 * math.pi * uv[:, 1]
    ring = np.sqrt(1.0 - z * z)
    ambient = f.params["R"] * np.stack(
        [ring * np.cos(lon), ring * np.sin(lon), z], axis=-1)
    return [f.locate(p) for p in ambient]


def circle_r1(lam: float) -> float:
    """Closed-form slope-bound radius of the unit circle (and sphere)."""
    return lam / math.sqrt(1.0 + lam * lam)


def circle_r0(lam: float) -> float:
    """Closed-form height-bound radius of the unit circle."""
    return 2.0 * lam / (1.0 + lam * lam)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / ref


@dataclass(frozen=True)
class Workload:
    name: str
    root: str  # layer of the span around the verdict

    def build(self):
        raise NotImplementedError

    def inputs(self, f, rng, count: int) -> list:
        raise NotImplementedError

    def verdict(self, f, inp):
        raise NotImplementedError

    def check(self, out, inp) -> str:
        """Empty string when the verdict meets its reference, else why not."""
        raise NotImplementedError

    def count(self, tracer, out):
        """Counts taken from the verdict's own return value."""


class SphereC1(Workload):
    # At this slope bound every bracket stays inside the base point's chart,
    # so a verdict costs about the same wherever the point falls.  At 0.5
    # the component crosses charts for points near a chart edge, and one
    # bracket (N=33) took from 1.8 s to 7.8 s on a 2-core 2.1 GHz Xeon,
    # depending on the point: too uneven for a steady median per run.
    LAM, TOL = 0.05, 5e-4
    N = 129  # odd, so grid nodes sit on the ball's axes at the full radius

    def build(self):
        return tg.zoo_build("sphere2", {"R": 1.0})

    def inputs(self, f, rng, count):
        return [[q] for q in sphere_points(f, rng, count)]

    def verdict(self, f, inp):
        return tg.max_radius(f, self.LAM, tg.KIND_C1, inp, tol=self.TOL, N=self.N)

    def check(self, out, inp):
        err = _rel(out.midpoint(), circle_r1(self.LAM))
        if out.status != "bracketed" or err > 2e-3:
            return f"{out.status} bracket, midpoint rel err {err:.3e} > 2e-3"
        return ""


class CircleTheorem(Workload):
    LAM, N, POINTS = 1e-5, 4096, 3

    def build(self):
        return tg.zoo_build("circle", {"R": 1.0})

    def inputs(self, f, rng, count):
        t = rng.uniform(-math.pi, math.pi, size=(count, self.POINTS))
        return [[f.point(0, [v]) for v in row] for row in t]

    def verdict(self, f, inp):
        return tg.verify_main_theorem(f, self.LAM, inp, N=self.N)

    def check(self, out, inp):
        err0 = _rel(out.r0.midpoint(), circle_r0(self.LAM))
        err1 = _rel(out.r1_scaled.midpoint(), circle_r1(self.LAM / out.cap))
        if not (out.holds and out.margin >= 0.5 and err0 <= 2e-3
                and err1 <= 2e-3):
            return (f"holds={out.holds} margin={out.margin:.4f} "
                    f"r0 rel err {err0:.3e} r1 rel err {err1:.3e}")
        return ""


class TorusC1(Workload):
    LAM, N, TOL = 0.05, 65, 1e-3
    # Recorded with tangentgraph 0.1.0 when this benchmark was added:
    # max_radius(torus(R_maj=2, r_min=0.5), 0.05, c1, [q], N=65) gave this
    # bracket at every one of 18 base points swept over the tube angle.
    REFERENCE = (0.024965651567314333, 0.024979796412394964)

    def build(self):
        return tg.zoo_build("torus", {"R_maj": 2.0, "r_min": 0.5})

    def inputs(self, f, rng, count):
        angles = 2.0 * math.pi * spread_unit_square(rng, count) - math.pi
        return [[f.point(0, a)] for a in angles]

    def verdict(self, f, inp):
        return tg.max_radius(f, self.LAM, tg.KIND_C1, inp, tol=self.TOL, N=self.N)

    def check(self, out, inp):
        lo, hi = self.REFERENCE
        if (out.status != "bracketed" or _rel(out.r_lo, lo) > self.TOL
                or _rel(out.r_hi, hi) > self.TOL):
            return (f"{out.status} bracket [{out.r_lo!r}, {out.r_hi!r}] "
                    f"differs from reference [{lo!r}, {hi!r}]")
        return ""


class SphereDuCert(Workload):
    LAM = 2.5e-6  # the m = 2 threshold 1e-5 / m^2
    R, NODES_PER_RHO = 4e-6, 12

    def build(self):
        return tg.zoo_build("sphere2", {"R": 1.0})

    def inputs(self, f, rng, count):
        return sphere_points(f, rng, count)

    def verdict(self, f, inp):
        return tg.certify_du_bound(f, inp, self.R, self.LAM,
                                   nodes_per_rho=self.NODES_PER_RHO)

    def check(self, out, inp):
        worst = max(c for _, c, _ in out.per_node)
        if worst > out.global_bound or out.max_actual() > out.global_bound:
            return (f"certified {worst:.3e} / actual {out.max_actual():.3e} "
                    f"exceed the global bound {out.global_bound:.3e}")
        return ""

    def count(self, tracer, out):
        tracer.counts["theorems.ducert.nodes"] += len(out.per_node)


WORKLOADS = {
    w.name: w
    for w in (
        SphereC1("sphere-c1", "radius.bracket"),
        CircleTheorem("circle-theorem", "theorems.verdict"),
        TorusC1("torus-c1", "radius.bracket"),
        SphereDuCert("sphere-ducert", "theorems.ducert"),
    )
}
