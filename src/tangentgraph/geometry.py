"""Small-dimension exact linear algebra: subspaces, isometries, graph matrices.

Everything here is pure and value-like; arrays are treated as immutable
after construction, so values may be shared freely between callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionViolated

SPAN_TOL = 1e-10
GRAPH_RANK_TOL = 1e-9
ORTHONORMAL_TOL = 1e-10  # entry-wise bound on |B^T B - I|
# sigma_max(slope)^2 at which an orthonormal basis's top block has
# sigma_min = GRAPH_RANK_TOL
_VERTICAL_SLOPE_SQ = GRAPH_RANK_TOL ** -2 - 1.0


def matrix_norm(a) -> float:
    """Column-l2 aggregate norm (sum of squared column norms, rooted).

    Dominates the operator norm for every real matrix.
    """
    a = np.asarray(a, dtype=float)
    return float(np.sqrt((a * a).sum()))


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, added left to right: the bits of
    ``np.sum(a * b, axis=-1)`` for rows shorter than eight."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def row_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: the bits of
    ``np.linalg.norm(a, axis=-1)`` for rows shorter than eight."""
    return np.sqrt(row_dot(a, a))


def product_columns(a: np.ndarray, mats: np.ndarray) -> list:
    """Entries of ``a @ mat`` for every stacked matrix, (p, n) and (..., n, q):
    entry [i][j] is a column over the stack, added left to right."""
    return [[row_dot(row, mats[..., j]) for j in range(mats.shape[-1])] for row in a]


def _entries(mats: np.ndarray) -> list:
    """Entry [i][j] of every stacked matrix, each a column (view) over the stack."""
    return [[mats[..., i, j] for j in range(mats.shape[-1])] for i in range(mats.shape[-2])]


def _stack_entries(entries: list) -> np.ndarray:
    """The stacked matrices whose entry [i][j] is the column entries[i][j]."""
    out = np.empty(np.shape(entries[0][0]) + (len(entries), len(entries[0])))
    for i, row in enumerate(entries):
        for j, col in enumerate(row):
            out[..., i, j] = col
    return out


def left_product(a: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``a @ mat`` for every stacked matrix, entry by entry: (p, n) and
    (..., n, q) give (..., p, q), each entry added left to right (the bits
    of ``np.einsum("ij,bjl->bil")`` for q >= 2)."""
    return _stack_entries(product_columns(a, mats))


def _grid_rows(axes) -> np.ndarray:
    """Rows of the grid spanned by per-axis values, in row-major order."""
    out = np.empty(tuple(map(len, axes)) + (len(axes),), dtype=np.result_type(*axes))
    for d, vals in enumerate(axes):
        out[..., d] = vals.reshape((-1,) + (1,) * (len(axes) - 1 - d))
    return out.reshape(-1, len(axes))


def _inverse_columns(mats: list) -> list:
    """Entries of the inverse of every stacked m x m matrix, the matrices and
    their inverses given by their entries (columns over the stack): the
    adjugate over the determinant for m <= 2, LAPACK above."""
    m = len(mats)
    if m == 1:
        return [[1.0 / mats[0][0]]]
    if m > 2:
        return _entries(np.linalg.inv(_stack_entries(mats)))
    (a, b), (c, d) = mats
    inv_det = 1.0 / (a * d - b * c)
    return [[d * inv_det, -b * inv_det], [-c * inv_det, a * inv_det]]


def _is_orthonormal(b: np.ndarray) -> bool:
    """Whether every entry of ``B^T B - I``, for each stacked (..., n, m) B,
    is at most ``ORTHONORMAL_TOL`` in absolute value (False for NaN)."""
    gram = np.swapaxes(b, -1, -2) @ b - np.eye(b.shape[-1])
    return bool(np.abs(gram).max(initial=0.0) <= ORTHONORMAL_TOL)


def _check_bases(b: np.ndarray, ndim: int):
    """Raise ValueError unless b stacks n x m orthonormal bases, n >= m >= 1."""
    if b.ndim != ndim or b.shape[-2] < b.shape[-1] or b.shape[-1] < 1:
        raise ValueError(f"basis must be n x m with n >= m >= 1, got {b.shape}")
    if not _is_orthonormal(b):
        raise ValueError("basis columns are not orthonormal")


def _singular_extremes(mat: np.ndarray):
    """(sigma_max, sigma_min) per stacked n x m matrix, n >= m; closed forms
    for m <= 2.  For m = 2, sigma_max comes from the Gram matrix and
    sigma_min = sigma_1 sigma_2 / sigma_max, the product being the root sum
    of squares of the 2 x 2 minors (|det| when square): accurate to rounding
    relative to sigma_max even for a singular matrix, which the Gram
    discriminant is not."""
    n, m = mat.shape[-2:]
    if m == 1:
        s = row_norm(mat[..., 0])
        return s, s
    if m == 2:
        a, b = mat[..., 0], mat[..., 1]
        g00, g11, g01 = row_dot(a, a), row_dot(b, b), row_dot(a, b)
        disc = np.sqrt(0.25 * (g00 - g11) ** 2 + g01 ** 2)
        smax = np.sqrt(0.5 * (g00 + g11) + disc)
        prod = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                minor = mat[..., i, 0] * mat[..., j, 1] - mat[..., i, 1] * mat[..., j, 0]
                prod = prod + minor * minor
        return smax, np.sqrt(prod) / np.maximum(smax, 1e-300)
    svals = np.linalg.svd(mat, compute_uv=False)
    return svals[..., 0], svals[..., -1]


def _orthonormalize_batch(jac: np.ndarray) -> np.ndarray:
    """Orthonormal column basis per stacked full-rank n x m matrix, each
    column j having a positive inner product with the j-th input column."""
    m = jac.shape[-1]
    if m == 1:
        return jac / row_norm(jac[..., 0])[..., None, None]
    if m == 2:
        a, b = jac[..., 0], jac[..., 1]
        q1 = a / row_norm(a)[..., None]
        w = b - row_dot(q1, b)[..., None] * q1
        w = w - row_dot(q1, w)[..., None] * q1
        q2 = w / row_norm(w)[..., None]
        return np.stack([q1, q2], axis=-1)
    q, r = np.linalg.qr(jac)
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sign[sign == 0] = 1.0
    return q * sign[..., None, :]


def _slopes(entries: list, flat: np.ndarray) -> np.ndarray:
    """bottom @ inv(top), (B, k, m), for stacked n x m matrices given by
    their entries (columns over the stack), top their first m rows; a row
    flagged in flat has its top replaced by the identity, keeping the
    inverse defined, and its slope set to NaN."""
    m = len(entries[0])
    top, bottom = entries[:m], entries[m:]
    any_flat = flat.any()
    if any_flat:
        top = [[np.where(flat, float(i == j), col) for j, col in enumerate(row)]
               for i, row in enumerate(top)]
    inv = _inverse_columns(top)
    slope = np.empty(flat.shape + (len(bottom), m))
    for r, row in enumerate(bottom):
        for j in range(m):
            entry = row[0] * inv[0][j]
            for i in range(1, m):
                entry += row[i] * inv[i][j]
            slope[:, r, j] = entry
    if any_flat:
        slope[flat] = np.nan
    return slope


def span_slopes(entries: list):
    """Slope matrices over R^m x {0} of the column spans of stacked n x m
    matrices, which need not be orthonormal, given by their entries: entry
    [i][j] is a column over the stack (``product_columns`` gives them).

    Returns (slope, vertical, norm).  The slope bottom @ inv(top) depends
    only on the span.  A span is vertical when the top block of its
    orthonormal basis has sigma_min <= GRAPH_RANK_TOL.  That sigma_min is
    1 / sqrt(1 + sigma_max(slope)^2), so the test reads: a row is vertical
    when its top block is singular or sigma_max(slope)^2 >=
    GRAPH_RANK_TOL^-2 - 1.  It depends on neither the basis nor its scale.
    norm is the slope's Frobenius norm, an upper bound of sigma_max, so only
    rows with norm >= 1 / GRAPH_RANK_TOL need sigma_max.  Vertical rows get
    NaN slopes and norms.
    """
    m, k = len(entries[0]), len(entries) - len(entries[0])
    if m == 1:
        det = entries[0][0]
    elif m == 2:
        det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    else:
        det = np.linalg.det(_stack_entries(entries[:m]))
    singular = det == 0.0
    slope = _slopes(entries, singular)
    flat = slope.reshape(len(slope), -1)
    square = row_dot(flat, flat)
    vertical = ~(square < _VERTICAL_SLOPE_SQ)  # singular rows read NaN
    if k > 1 and vertical.any():
        big = np.flatnonzero(vertical & ~singular)
        steep = slope[big] if k >= m else np.swapaxes(slope[big], -1, -2)
        vertical[big] = ~(_singular_extremes(steep)[0] ** 2 < _VERTICAL_SLOPE_SQ)
    norm = np.sqrt(square)
    if vertical.any():
        slope[vertical] = np.nan
        norm[vertical] = np.nan
    return slope, vertical, norm


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear m-dimensional subspace of R^n via an orthonormal basis matrix.

    Two subspaces with the same column span compare equal regardless of the
    particular basis chosen.
    """

    basis: np.ndarray  # (n, m), orthonormal columns

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        _check_bases(b, 2)
        object.__setattr__(self, "basis", b)

    @classmethod
    def stack(cls, bases) -> list:
        """One subspace per basis of a (B, n, m) stack: the stack is checked
        for orthonormality and its graph matrices computed in one pass."""
        b = np.asarray(bases, dtype=float)
        _check_bases(b, 3)
        out = [object.__new__(cls) for _ in b]  # checked above, as a whole
        for e, basis, graph in zip(out, b, _graph_results(b)):
            e.__dict__.update(basis=basis, graph=graph)  # graph fills the cache
        return out

    @cached_property
    def graph(self) -> GraphMatrixResult | None:
        """Slope matrix over R^m x {0}, or None when vertical; computed once."""
        return _graph_results(self.basis[None])[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_span(cls, vectors) -> "Subspace":
        """Orthonormalize spanning columns; basis column j has a positive
        inner product with spanning column j."""
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        if v.shape[0] < v.shape[1] or _singular_extremes(v)[1] <= 1e-12:
            raise ValueError("spanning vectors are linearly dependent")
        return cls(_orthonormalize_batch(v))

    def max_principal_angle(self, other: "Subspace") -> float:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            raise ValueError("subspace dimensions do not agree")
        # sine: norm of other's basis off this span; cosine: smallest singular value of A^T B
        cross = self.basis.T @ other.basis
        sine = _singular_extremes(other.basis - self.basis @ cross)[0]
        return float(np.arctan2(sine, _singular_extremes(cross)[1]))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return self.max_principal_angle(other) <= SPAN_TOL

    __hash__ = None


@dataclass(frozen=True)
class Isometry:
    """Rigid motion x -> R x + T of R^n with R a rotation (det +1)."""

    rotation: np.ndarray  # (n, n)
    translation: np.ndarray  # (n,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(-1)
        n = r.shape[0]
        if r.shape != (n, n) or t.shape != (n,):
            raise ValueError("rotation/translation shapes do not agree")
        if not _is_orthonormal(r):
            raise ValueError("rotation is not orthogonal")
        if np.linalg.det(r) < 0:
            raise ValueError("rotation has negative determinant")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.rotation.T + self.translation

    def inverse_apply(self, x) -> np.ndarray:
        """(x - T) @ R, with x shifted one column at a time."""
        x = np.asarray(x, dtype=float)
        shifted = np.empty(x.shape)
        for j, t in enumerate(self.translation):
            np.subtract(x[..., j], t, out=shifted[..., j])
        return shifted @ self.rotation

    def inverse(self) -> "Isometry":
        return Isometry(self.rotation.T, -self.rotation.T @ self.translation)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: x -> self(other(x))."""
        return Isometry(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


@dataclass(frozen=True)
class GraphMatrixResult:
    """Slope matrix A with E = span{(e_j, a_j)} and its aggregate norm."""

    matrix: np.ndarray  # (k, m)
    norm: float


def complete_orthonormal_frame(basis) -> np.ndarray:
    """Extend orthonormal columns to a full rotation matrix of R^n.

    Completion is Gram-Schmidt over the identity columns with pivoting on
    the largest residual, which keeps the result deterministic and well
    conditioned.  The last column's sign is flipped if needed for det +1.
    """
    b = np.asarray(basis, dtype=float)
    n, m = b.shape
    cols = [b[:, j].copy() for j in range(m)]
    candidates = np.eye(n)
    while len(cols) < n:
        q = np.column_stack(cols)
        resid = candidates - q @ (q.T @ candidates)
        norms = np.linalg.norm(resid, axis=0)
        j = int(np.argmax(norms))
        v = resid[:, j]
        v = v - q @ (q.T @ v)  # second pass for stability
        v /= np.linalg.norm(v)
        cols.append(v)
    frame = np.column_stack(cols)
    if np.linalg.det(frame) < 0:
        frame = frame.copy()
        frame[:, -1] = -frame[:, -1]
    return frame


def make_admissible_isometry(base, plane: Subspace) -> Isometry:
    """Canonical rigid motion sending 0 to ``base`` and R^m x {0} onto the plane.

    Admissible isometries are not unique; this picks the deterministic frame
    completion of the plane's stored basis so that repeated runs agree.
    """
    base = np.asarray(base, dtype=float).reshape(-1)
    if base.shape[0] != plane.ambient_dim:
        raise ValueError("base point dimension does not match the plane")
    return Isometry(complete_orthonormal_frame(plane.basis), base)


def is_admissible(iso: Isometry, base, plane: Subspace, tol: float = SPAN_TOL) -> bool:
    """True iff iso(0) = base and the rotation carries R^m x {0} onto the plane."""
    base = np.asarray(base, dtype=float).reshape(-1)
    if iso.dim != plane.ambient_dim or base.shape[0] != iso.dim:
        return False
    if np.linalg.norm(iso.apply(np.zeros(iso.dim)) - base) > tol:
        return False
    image = Subspace(iso.rotation[:, : plane.dim])
    return image.max_principal_angle(plane) <= tol


def randomize_admissible(iso: Isometry, m: int, rng) -> Isometry:
    """Another admissible isometry at the same point: random in-plane and
    normal-space twists composed with the given frame."""
    n = iso.dim
    k = n - m
    p = random_rotation(m, rng) if m > 1 else np.eye(1)
    s = random_rotation(k, rng) if k > 1 else np.eye(max(k, 1))[:k, :k]
    if rng.random() < 0.5 and m >= 1 and k >= 1:
        # allow a reflection pair (still det +1 overall)
        p = p.copy()
        s = s.copy()
        p[:, 0] = -p[:, 0]
        s[:, 0] = -s[:, 0]
    block = np.zeros((n, n))
    block[:m, :m] = p
    block[m:, m:] = s
    return Isometry(iso.rotation @ block, iso.translation)


def random_rotation(n: int, rng) -> np.ndarray:
    """Haar-ish random rotation from QR of a Gaussian matrix, det fixed to +1."""
    if n == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, -1] = -q[:, -1]
    return q


def _graph_results(bases: np.ndarray) -> list:
    """GraphMatrixResult per stacked basis from one ``span_slopes`` call, or
    None where it is vertical; each norm has the bits of ``matrix_norm``."""
    slope, vertical, _ = span_slopes(_entries(bases))
    norms = np.sqrt((slope * slope).reshape(len(slope), -1).sum(axis=-1))
    return [None if v else GraphMatrixResult(matrix=a, norm=float(norm))
            for a, v, norm in zip(slope, vertical, norms)]


def subspace_graph_matrix(e: Subspace) -> GraphMatrixResult | None:
    """Slope matrix of a subspace over R^m x {0}, or None when vertical (the
    top m x m block of its basis is rank-deficient): its cached ``graph``."""
    return e.graph


def graph_matrix_from_probes(e: Subspace, probes, L: float) -> GraphMatrixResult:
    """Certified slope matrix from m probe points close to the horizontal axes.

    The probes must lie on the subspace and satisfy
    ``|v_j - (e_j, 0)| <= L / (3 sqrt(m))`` for L <= 1; then the subspace is
    a graph with aggregate slope norm at most L.  The matrix itself is read
    off the subspace (the probes only validate the hypothesis), so nearly
    coincident probes cannot make the computation ill conditioned.  All
    probes are checked together; the lowest failing probe is reported, its
    distance off the subspace before its distance from the axis point.
    """
    m, n = e.dim, e.ambient_dim
    if L > 1.0 + 1e-12:
        raise ValueError(f"probe bound requires L <= 1, got {L}")
    if isinstance(probes, np.ndarray) and probes.shape == (m, n):
        v, good = probes.astype(float, copy=False), m  # one stack, as the certifier passes
    else:
        probes = [np.asarray(v, dtype=float).reshape(-1) for v in probes]
        if len(probes) != m:
            raise ValueError(f"expected {m} probes, got {len(probes)}")
        # Probes before the first one of the wrong dimension are checked first.
        good = next((j for j, v in enumerate(probes) if v.shape[0] != n), m)
        v = np.array(probes[:good]).reshape(good, n)
    off = row_norm(v - (v @ e.basis) @ e.basis.T)
    far = row_norm(v - np.eye(good, n))  # v_j - e_j
    budget = L / (3.0 * math.sqrt(m))
    bad_off = off > SPAN_TOL
    bad = bad_off | (far > budget * (1 + 1e-12) + 1e-15)
    if bad.any():
        j = int(bad.argmax())
        if bad_off[j]:
            raise PreconditionViolated(
                f"probe {j} is off the subspace (distance {off[j]:.3e})", index=j)
        raise PreconditionViolated(
            f"probe {j} too far from its axis point: {far[j]:.6e} > {budget:.6e}",
            index=j)
    if good < m:
        raise ValueError(f"probe {good} has wrong ambient dimension")
    result = e.graph
    if result is None:
        # Unreachable when the hypothesis holds; flag the construction.
        raise PreconditionViolated("probes valid but subspace is vertical", index=-1)
    if result.norm > L * (1 + 1e-9) + 1e-12:
        raise PreconditionViolated(
            f"certified norm {result.norm:.6e} exceeds the bound {L:.6e}", index=-1
        )
    return result
