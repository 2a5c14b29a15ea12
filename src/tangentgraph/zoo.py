"""Parametric immersions with exact Jacobians, charts, and point samplers.

The manifold is represented purely through charts plus a deterministic
sampler; every construction downstream is local, so no global topology
data is kept.  Chart ``eval``/``jacobian`` callables are vectorized over
leading axes: float coords of shape (..., m) map to (..., n) and
(..., n, m).  ``ParamImmersion`` converts coords once, where they enter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParams, RankDeficient, UnknownEntry
from .geometry import Isometry, Subspace, _grid_rows, _orthonormalize_batch, _singular_extremes

RANK_TOL = 1e-8


@dataclass
class Chart:
    """One parameter patch: an axis-aligned box plus evaluation maps.

    ``inside`` optionally restricts the valid set to a subregion of the box
    (e.g. a disk); ``periodic`` axes identify coords modulo the box length.
    ``sample_lo``/``sample_hi`` bound the window the sampler draws from,
    kept away from non-periodic boundaries.
    """

    lo: np.ndarray
    hi: np.ndarray
    eval: callable
    jacobian: callable
    periodic: tuple = ()
    inside: callable = None
    sample_lo: np.ndarray = None
    sample_hi: np.ndarray = None

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        m = self.lo.shape[0]
        if not self.periodic:
            self.periodic = (False,) * m
        if self.sample_lo is None:
            self.sample_lo = self.lo.copy()
        if self.sample_hi is None:
            self.sample_hi = self.hi.copy()
        self.sample_lo = np.asarray(self.sample_lo, dtype=float)
        self.sample_hi = np.asarray(self.sample_hi, dtype=float)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, coords) -> np.ndarray:
        """Vectorized membership in the valid set (box and mask, with wraps)."""
        c = np.asarray(coords, dtype=float)
        ok = np.ones(c.shape[:-1], dtype=bool)
        for d in range(self.dim):
            if not self.periodic[d]:
                ok &= (c[..., d] >= self.lo[d]) & (c[..., d] <= self.hi[d])
        if self.inside is not None:
            ok &= self.inside(c)
        return ok

    def wrap(self, coords) -> np.ndarray:
        """Fold periodic axes back into [lo, hi)."""
        c = np.array(coords, dtype=float)
        for d in range(self.dim):
            if self.periodic[d]:
                span = self.hi[d] - self.lo[d]
                c[..., d] = np.mod(c[..., d] - self.lo[d], span) + self.lo[d]
        return c


@dataclass(frozen=True)
class ParamPoint:
    """A point of the manifold: chart index plus chart coordinates."""

    chart: int
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coords", np.asarray(self.coords, dtype=float).reshape(-1)
        )


@dataclass
class ParamImmersion:
    """Evaluable immersion f: M^m -> R^n given by charts and a sampler."""

    name: str
    params: dict
    m: int
    n: int
    charts: list
    locate: callable = None  # ambient point -> ParamPoint in another chart
    _bbox_cache: float = field(default=None, init=False, repr=False)

    @property
    def k(self) -> int:
        return self.n - self.m

    def point(self, chart: int, coords) -> ParamPoint:
        p = ParamPoint(chart, coords)
        if not (0 <= chart < len(self.charts)):
            raise InvalidParams(f"chart index {chart} out of range")
        if not np.isfinite(p.coords).all():
            raise InvalidParams(f"coords {p.coords} are not finite")
        if not bool(self.charts[chart].contains(p.coords)):
            raise InvalidParams(f"coords {p.coords} outside chart {chart}")
        return p

    def eval(self, p: ParamPoint) -> np.ndarray:
        return np.asarray(self.charts[p.chart].eval(p.coords), dtype=float)

    def jacobian(self, p: ParamPoint) -> np.ndarray:
        return np.asarray(self.charts[p.chart].jacobian(p.coords), dtype=float)

    def eval_chart(self, chart: int, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return np.asarray(self.charts[chart].eval(coords), dtype=float)

    def jacobian_chart(self, chart: int, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return np.asarray(self.charts[chart].jacobian(coords), dtype=float)

    def _sample_grid(self, per_axis: int):
        """Per chart, its index and the sample grid's coords in its valid set."""
        for ci, chart in enumerate(self.charts):
            axes = []
            for d in range(chart.dim):
                lo, hi = chart.sample_lo[d], chart.sample_hi[d]
                if chart.periodic[d]:
                    axes.append(lo + (hi - lo) * np.arange(per_axis) / per_axis)
                else:
                    axes.append(np.linspace(lo, hi, per_axis))
            coords = _grid_rows(axes)
            yield ci, coords[chart.contains(coords)]

    def sample_points(self, per_axis: int) -> list:
        """Deterministic grid sample covering the represented portion of M."""
        if per_axis < 0:
            raise ValueError(f"per_axis must be non-negative, got {per_axis}")
        return [ParamPoint(ci, c) for ci, coords in self._sample_grid(per_axis) for c in coords]

    def ambient_bbox_diag(self) -> float:
        """Cached bounding-box diagonal of the sampled image, for radius scales."""
        if self._bbox_cache is None:
            amb = np.concatenate([self.eval_chart(ci, coords)
                                  for ci, coords in self._sample_grid(17)])
            diag = float(np.linalg.norm(amb.max(axis=0) - amb.min(axis=0)))
            self._bbox_cache = diag if diag > 0 else 1.0
        return self._bbox_cache

    def describe(self) -> dict:
        return {
            "name": self.name,
            "params": {k: v for k, v in self.params.items() if np.isscalar(v)},
            "m": self.m,
            "n": self.n,
            "charts": len(self.charts),
        }


def tangent_space(f: ParamImmersion, p: ParamPoint) -> Subspace:
    """Column span of the Jacobian at p, orthonormalized.

    Raises RankDeficient when the smallest singular value drops to the
    immersion tolerance: the map is not an immersion there.
    """
    jac = f.jacobian(p)
    _, smin = _singular_extremes(jac)
    if smin <= RANK_TOL:
        raise RankDeficient(
            f"Jacobian nearly rank-deficient at {p} (sigma_min={smin:.3e})"
        )
    return Subspace(_orthonormalize_batch(jac))


@dataclass(frozen=True)
class ZooEntry:
    name: str
    defaults: dict
    builder: callable
    callables: tuple = ()  # optional parameters that must be callable


def _require(cond: bool, message: str):
    if not cond:
        raise InvalidParams(message)


def _integer(params, key) -> int:
    """params[key] as an int, refused unless it is a whole number."""
    value = params[key]
    _require(isinstance(value, numbers.Real) and float(value).is_integer(),
             f"{key} must be a whole number, got {value!r}")
    return int(value)


def _cube_chart(m: int, half: float, window: float, ev, jac, periodic=(), inside=None) -> Chart:
    """The box [-half, half]^m, sampled on [-window, window]^m."""
    return Chart(lo=-half * np.ones(m), hi=half * np.ones(m), eval=ev, jacobian=jac,
                 periodic=periodic, inside=inside,
                 sample_lo=-window * np.ones(m), sample_hi=window * np.ones(m))


def _graph_chart(m: int, k: int, half: float, window: float, height, grad) -> Chart:
    """The graph x -> (x, height(x)) over a _cube_chart; height maps coords
    (..., m) to (..., k) and grad to (..., k, m), or either is a constant."""
    n = m + k

    def ev(x):
        out = np.empty(x.shape[:-1] + (n,))
        out[..., :m] = x
        out[..., m:] = height(x)
        return out

    def jac(x):
        out = np.zeros(x.shape[:-1] + (n, m))
        out[..., :m, :] = np.eye(m)
        out[..., m:, :] = grad(x)
        return out

    return _cube_chart(m, half, window, ev, jac)


def _build_flat(params) -> ParamImmersion:
    m, k = _integer(params, "m"), _integer(params, "k")
    extent = float(params["extent"])
    _require(m >= 1 and k >= 1, "flat needs m >= 1 and k >= 1")
    _require(m <= 4, "flat supports m <= 4")
    _require(extent > 0, "flat extent must be positive")
    chart = _graph_chart(m, k, extent, 1.0, lambda x: 0.0, lambda x: 0.0)
    return ParamImmersion("flat", dict(params), m, m + k, [chart])


def _build_circle(params) -> ParamImmersion:
    radius = float(params["R"])
    _require(radius > 0, "circle needs R > 0")

    def ev(x):
        t = x[..., 0]
        return np.stack([radius * np.cos(t), radius * np.sin(t)], axis=-1)

    def jac(x):
        t = x[..., 0]
        return np.stack([-radius * np.sin(t), radius * np.cos(t)], axis=-1)[..., None]

    chart = _cube_chart(1, math.pi, math.pi, ev, jac, periodic=(True,))
    return ParamImmersion("circle", dict(params), 1, 2, [chart])


def _build_sphere2(params) -> ParamImmersion:
    radius = float(params["R"])
    _require(radius > 0, "sphere2 needs R > 0")
    cap = 0.9 * radius  # chart disk radius; any point has off-axis norm <= 0.817 R

    charts = []
    axes_signs = [(i, s) for i in range(3) for s in (+1.0, -1.0)]

    def make(axis, sign):
        j, l = (axis + 1) % 3, (axis + 2) % 3

        def ev(x):
            a, b = x[..., 0], x[..., 1]
            out = np.zeros(x.shape[:-1] + (3,))
            out[..., j] = a
            out[..., l] = b
            out[..., axis] = sign * np.sqrt(radius**2 - a * a - b * b)
            return out

        def jac(x):
            a, b = x[..., 0], x[..., 1]
            root = np.sqrt(radius**2 - a * a - b * b)
            out = np.zeros(x.shape[:-1] + (3, 2))
            out[..., j, 0] = 1.0
            out[..., l, 1] = 1.0
            out[..., axis, 0] = -sign * a / root
            out[..., axis, 1] = -sign * b / root
            return out

        def inside(x):
            return x[..., 0] ** 2 + x[..., 1] ** 2 < cap**2

        return _cube_chart(2, cap, cap, ev, jac, inside=inside)

    for axis, sign in axes_signs:
        charts.append(make(axis, sign))

    def locate(ambient, exclude=None):
        p = np.asarray(ambient, dtype=float)
        order = np.argsort(-np.abs(p))
        for axis in order:
            for sign in (+1.0, -1.0):
                ci = 2 * axis + (0 if sign > 0 else 1)
                if ci == exclude:
                    continue
                if sign * p[axis] <= 0:
                    continue
                j, l = (axis + 1) % 3, (axis + 2) % 3
                coords = np.array([p[j], p[l]])
                if coords @ coords < (0.88 * radius) ** 2:
                    return ParamPoint(ci, coords)
        return None

    return ParamImmersion("sphere2", dict(params), 2, 3, charts, locate=locate)


def _build_torus(params) -> ParamImmersion:
    major, minor = float(params["R_maj"]), float(params["r_min"])
    _require(minor > 0 and major > minor, "torus needs R_maj > r_min > 0")

    def ev(x):
        th, ph = x[..., 0], x[..., 1]
        w = major + minor * np.cos(ph)
        return np.stack([w * np.cos(th), w * np.sin(th), minor * np.sin(ph)], axis=-1)

    def jac(x):
        th, ph = x[..., 0], x[..., 1]
        sin_th, cos_th, sin_ph, cos_ph = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        w = major + minor * cos_ph
        out = np.zeros(x.shape[:-1] + (3, 2))
        out[..., 0, 0] = -w * sin_th
        out[..., 1, 0] = w * cos_th
        out[..., 0, 1] = -minor * sin_ph * cos_th
        out[..., 1, 1] = -minor * sin_ph * sin_th
        out[..., 2, 1] = minor * cos_ph
        return out

    chart = _cube_chart(2, math.pi, math.pi, ev, jac, periodic=(True, True))
    return ParamImmersion("torus", dict(params), 2, 3, [chart])


def _build_helix(params) -> ParamImmersion:
    pitch = float(params["pitch"])
    window = float(params["window"])
    margin = float(params["margin"])
    _require(math.isfinite(pitch), f"helix pitch must be finite, got {pitch}")
    _require(window > 0 and margin > 0, "helix needs window > 0 and margin > 0")

    def ev(x):
        t = x[..., 0]
        return np.stack([np.cos(t), np.sin(t), pitch * t], axis=-1)

    def jac(x):
        t = x[..., 0]
        ones = np.ones_like(t)
        return np.stack([-np.sin(t), np.cos(t), pitch * ones], axis=-1)[..., None]

    chart = _cube_chart(1, window + margin, window, ev, jac)
    return ParamImmersion("helix", dict(params), 1, 3, [chart])


def _build_graph_of(params) -> ParamImmersion:
    """Graph of a height function over a box in R^m (codimension one).

    By default the height is the paraboloid coeff * |x|^2 / 2; library users
    may instead pass callables ``height`` and ``height_grad``, together.
    """
    m = _integer(params, "m")
    extent = float(params["extent"])
    window = float(params["window"])
    _require(m >= 1, "graph_of needs m >= 1")
    _require(m <= 4, "graph_of supports m <= 4")
    _require(extent > window > 0, "graph_of needs extent > window > 0")
    height, grad = params.get("height"), params.get("height_grad")
    _require((height is None) == (grad is None),
             "graph_of takes height and height_grad together")
    if height is None:
        coeff = float(params["coeff"])
        _require(math.isfinite(coeff), f"graph_of coeff must be finite, got {coeff}")

        def height(x):
            return 0.5 * coeff * (x * x).sum(axis=-1)

        def grad(x):
            return coeff * x

    chart = _graph_chart(m, 1, extent, window, lambda x: np.expand_dims(height(x), -1),
                         lambda x: np.expand_dims(grad(x), -2))
    return ParamImmersion("graph_of", dict(params), m, m + 1, [chart])


def _build_wiggle(params) -> ParamImmersion:
    """Plane curve t -> (t, eps * sin(2 pi t / delta)): a C0-small but
    arbitrarily steep height over the horizontal axis.

    The parameter interval keeps a wide margin beyond the sampling window
    so components never touch the boundary at the radii of interest.
    """
    eps = float(params["eps"])
    delta = float(params["delta"])
    window = float(params["window"])
    margin = float(params["margin"])
    _require(eps >= 0, "wiggle needs eps >= 0")
    _require(delta > 0, "wiggle needs delta > 0")
    _require(window > 0 and margin > 0, "wiggle needs window > 0 and margin > 0")
    omega = 2.0 * math.pi / delta
    chart = _graph_chart(1, 1, window + margin, window, lambda t: eps * np.sin(omega * t),
                         lambda t: (eps * omega * np.cos(omega * t))[..., None])
    return ParamImmersion("wiggle", dict(params), 1, 2, [chart])


ZOO = {
    "flat": ZooEntry("flat", {"m": 1, "k": 1, "extent": 2100.0}, _build_flat),
    "circle": ZooEntry("circle", {"R": 1.0}, _build_circle),
    "sphere2": ZooEntry("sphere2", {"R": 1.0}, _build_sphere2),
    "torus": ZooEntry("torus", {"R_maj": 2.0, "r_min": 0.5}, _build_torus),
    "helix": ZooEntry(
        "helix", {"pitch": 1.0, "window": 4.0 * math.pi, "margin": 10.0}, _build_helix
    ),
    "graph_of": ZooEntry(
        "graph_of", {"m": 2, "coeff": 1.0, "extent": 4.0, "window": 1.0},
        _build_graph_of, callables=("height", "height_grad"),
    ),
    "wiggle": ZooEntry(
        "wiggle", {"eps": 1e-6, "delta": 1e-7, "window": 0.5, "margin": 5.0},
        _build_wiggle,
    ),
}


def zoo_build(name: str, params: dict = None) -> ParamImmersion:
    """Build a named zoo immersion, validating parameters."""
    if name not in ZOO:
        raise UnknownEntry(f"unknown zoo entry {name!r}; have {sorted(ZOO)}")
    entry = ZOO[name]
    merged = dict(entry.defaults)
    for key, value in (params or {}).items():
        if key in entry.callables:
            _require(callable(value), f"parameter {key!r} of entry {name!r} must be callable")
        elif key not in entry.defaults:
            raise InvalidParams(f"unknown parameter {key!r} for entry {name!r}")
        merged[key] = value
    return entry.builder(merged)


def _map_image(f: ParamImmersion, point, jacobian, inverse,
               params: dict) -> ParamImmersion:
    """The immersion with every chart's image mapped by ``point``.

    ``jacobian`` maps chart Jacobians accordingly and ``inverse`` carries
    ambient points back for the immersion's ``locate`` hook.
    """

    def wrap_chart(chart: Chart) -> Chart:
        return replace(chart, eval=lambda x: point(chart.eval(x)),
                       jacobian=lambda x: jacobian(chart.jacobian(x)))

    locate = None
    if f.locate is not None:

        def locate(ambient, exclude=None):
            return f.locate(inverse(ambient), exclude=exclude)

    return ParamImmersion(
        f.name,
        params,
        f.m,
        f.n,
        [wrap_chart(ch) for ch in f.charts],
        locate=locate,
    )


def transform_immersion(f: ParamImmersion, iso: Isometry) -> ParamImmersion:
    """Compose the immersion with a rigid motion of the ambient space."""
    if iso.dim != f.n:
        raise InvalidParams("isometry dimension does not match the immersion")
    return _map_image(
        f,
        iso.apply,
        lambda jac: np.einsum("ij,...jl->...il", iso.rotation, jac),
        iso.inverse().apply,
        dict(f.params, transformed=True),
    )


def scale_immersion(f: ParamImmersion, c: float) -> ParamImmersion:
    """The immersion c * f (same parameter domain, scaled image)."""
    if not c > 0:
        raise InvalidParams("scale factor must be positive")
    return _map_image(
        f,
        lambda y: c * np.asarray(y, dtype=float),
        lambda jac: c * np.asarray(jac, dtype=float),
        lambda ambient: np.asarray(ambient, dtype=float) / c,
        dict(f.params, scaled_by=c),
    )
