import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tangentgraph import (
    GraphMatrixResult,
    Isometry,
    PreconditionViolated,
    Subspace,
    graph_matrix_from_probes,
    is_admissible,
    make_admissible_isometry,
    matrix_norm,
    random_rotation,
    randomize_admissible,
    subspace_graph_matrix,
)
from tangentgraph.extractor import _solve_linear
from tangentgraph.geometry import (
    GRAPH_RANK_TOL,
    SPAN_TOL,
    _entries,
    _inverse_columns,
    _orthonormalize_batch,
    _singular_extremes,
    _stack_entries,
    left_product,
    product_columns,
    row_norm,
    span_slopes,
)


def power_iteration_norm(a, iters=60, seed=0):
    """Operator-norm oracle, independent of any library norm routine."""
    a = np.asarray(a, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(a @ v))


class TestMatrixNorm:
    def test_zero_matrix(self):
        assert matrix_norm(np.zeros((3, 2))) == 0.0
        assert matrix_norm(np.zeros((1, 1))) == 0.0

    def test_pythagorean_columns(self):
        assert matrix_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_identity_block_dominates_operator_norm(self):
        a = np.eye(2)
        assert matrix_norm(a) == pytest.approx(math.sqrt(2.0))
        assert power_iteration_norm(a) <= matrix_norm(a)

    def test_operator_norm_domination_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            k = rng.integers(1, 7)
            m = rng.integers(1, 7)
            a = rng.standard_normal((k, m)) * rng.uniform(0.1, 10.0)
            assert power_iteration_norm(a, iters=40, seed=1) <= matrix_norm(a) + 1e-12


class TestSubspace:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("basis", [
        [[1.000004], [0.0]],  # inside numpy's default relative tolerance
        [[1.0, 0.0], [0.0, 1.0], [0.0, 1e-5]],
        [[1.0, 2e-10], [0.0, 1.0], [0.0, 0.0]],
    ])
    def test_orthonormality_is_checked_entrywise_to_1e_10(self, basis):
        with pytest.raises(ValueError):
            Subspace(np.array(basis))

    def test_orthonormality_accepts_entries_within_1e_10(self):
        Subspace(np.array([[1.0, 5e-11], [0.0, 1.0], [0.0, 0.0]]))

    def test_span_equality_under_orthogonal_remix(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            e = Subspace.from_span(rng.standard_normal((n, m)))
            q = random_rotation(m, rng)
            assert e == Subspace(e.basis @ q)

    def test_distinct_spans_not_equal(self):
        e1 = Subspace(np.array([[1.0], [0.0]]))
        e2 = Subspace(np.array([[0.0], [1.0]]))
        assert e1 != e2

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_largest_angle_matches_scipy_below_one_radian(self, n, data):
        from scipy.linalg import subspace_angles

        m = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tilt = data.draw(st.floats(0.0, 1.0))
        span = rng.standard_normal((n, m))
        a = Subspace.from_span(span)
        b = Subspace.from_span(span + tilt * rng.standard_normal((n, m)))
        reference = subspace_angles(a.basis, b.basis).max()
        if reference < 1.0:
            assert abs(a.max_principal_angle(b) - reference) <= 1e-14

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_largest_angle_matches_constructed_angles(self, n, data):
        # b turns the i-th basis vector of a by angle i toward a normal
        # vector, so its principal angles against a are exactly the angles
        m = data.draw(st.integers(1, n - 1))
        largest = data.draw(st.floats(0.0, math.pi / 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        turns = min(m, n - m)
        angles = np.concatenate([[largest], rng.uniform(0.0, largest, turns - 1)])
        q = random_rotation(n, rng)
        b = q[:, :m].copy()
        b[:, :turns] = (np.cos(angles) * q[:, :turns]
                        + np.sin(angles) * q[:, m:m + turns])
        a = Subspace(q[:, :m])
        b = Subspace(b @ random_rotation(m, rng))
        assert abs(a.max_principal_angle(b) - largest) <= 1e-14
        assert abs(b.max_principal_angle(a) - largest) <= 1e-14

    def test_package_import_loads_no_scipy(self):
        code = ("import sys, tangentgraph; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestIsometry:
    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Isometry(np.diag([1.0, -1.0]), np.zeros(2))

    def test_rejects_a_rotation_off_by_4e_6(self):
        # det 1.000012; numpy's default allclose would have passed it
        with pytest.raises(ValueError):
            Isometry(np.diag([1.000004] * 3), np.zeros(3))

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        iso = Isometry(random_rotation(4, rng), rng.standard_normal(4))
        x = rng.standard_normal((10, 4))
        assert np.allclose(iso.inverse_apply(iso.apply(x)), x, atol=1e-12)
        inv = iso.inverse()
        assert np.allclose(inv.apply(iso.apply(x)), x, atol=1e-12)

    def test_composition_stays_orthonormal(self):
        rng = np.random.default_rng(12)
        a = Isometry(random_rotation(5, rng), rng.standard_normal(5))
        b = Isometry(random_rotation(5, rng), rng.standard_normal(5))
        c = a.compose(b)
        assert np.allclose(c.rotation.T @ c.rotation, np.eye(5), atol=1e-12)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_inverse_apply_keeps_the_broadcast_bits(self, n, rows, seed):
        # stacks are shifted one column at a time; the reference subtracts
        # the translation by broadcasting
        rng = np.random.default_rng(seed)
        iso = Isometry(random_rotation(n, rng), 10.0 * rng.standard_normal(n))
        for x in (rng.standard_normal(n), rng.standard_normal((rows, n))):
            ref = (x - iso.translation) @ iso.rotation
            assert np.array_equal(iso.inverse_apply(x), ref)


class TestAdmissibleIsometry:
    def test_aligned_plane_gives_aligned_frame(self):
        plane = Subspace(np.eye(4)[:, :2])
        iso = make_admissible_isometry(np.zeros(4), plane)
        assert np.allclose(iso.translation, 0.0)
        # the frame fixes the horizontal subspace setwise
        image = iso.rotation[:, :2]
        assert Subspace(image) == plane

    def test_line_in_plane(self):
        plane = Subspace(np.array([[0.0], [1.0]]))
        iso = make_admissible_isometry(np.array([1.0, 2.0]), plane)
        assert is_admissible(iso, np.array([1.0, 2.0]), plane)
        assert abs(abs(iso.rotation[1, 0]) - 1.0) < 1e-12

    def test_diagonal_line_in_space(self):
        direction = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        plane = Subspace(direction[:, None])
        iso = make_admissible_isometry(np.zeros(3), plane)
        assert np.allclose(np.abs(iso.rotation[:, 0]), np.abs(direction),
                           atol=1e-12)
        assert np.linalg.det(iso.rotation) == pytest.approx(1.0, abs=1e-9)
        assert is_admissible(iso, np.zeros(3), plane)

    def test_identity_admissible_at_origin(self):
        plane = Subspace(np.eye(3)[:, :2])
        iso = Isometry(np.eye(3), np.zeros(3))
        assert is_admissible(iso, np.zeros(3), plane)
        assert not is_admissible(iso, np.eye(3)[2], plane)

    def test_round_trip_property(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            plane = Subspace.from_span(rng.standard_normal((n, m)))
            base = rng.standard_normal(n) * 3.0
            iso = make_admissible_isometry(base, plane)
            assert is_admissible(iso, base, plane)

    def test_randomized_admissible_stays_admissible(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n))
            plane = Subspace.from_span(rng.standard_normal((n, m)))
            base = rng.standard_normal(n)
            iso = randomize_admissible(make_admissible_isometry(base, plane),
                                       m, rng)
            assert is_admissible(iso, base, plane)


class TestProjection:
    def test_base_point_maps_to_origin(self):
        # frame-composed projection sends the base point to 0 by admissibility
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n))
            plane = Subspace.from_span(rng.standard_normal((n, m)))
            base = rng.standard_normal(n)
            iso = make_admissible_isometry(base, plane)
            assert np.linalg.norm(iso.inverse_apply(base)[..., :m]) < 1e-10


class TestSubspaceGraphMatrix:
    def test_horizontal_space_gives_zero(self):
        e = Subspace(np.eye(5)[:, :3])
        res = subspace_graph_matrix(e)
        assert res is not None
        assert np.allclose(res.matrix, 0.0)
        assert res.norm == 0.0

    def test_line_slope(self):
        e = Subspace.from_span(np.array([[1.0], [0.1]]))
        res = subspace_graph_matrix(e)
        assert res.matrix[0, 0] == pytest.approx(0.1, abs=1e-14)

    def test_vertical_line_is_not_a_graph(self):
        e = Subspace(np.array([[0.0], [1.0]]))
        assert subspace_graph_matrix(e) is None


class TestSubspaceStack:
    @staticmethod
    def mixed_stack(m, k, rng):
        """Six orthonormal n x m bases; every other one is vertical, its
        first column the last axis of R^n."""
        n = m + k
        span = rng.standard_normal((6, n, m))
        span[1::2, :, 0] = np.eye(n)[-1]
        return _orthonormalize_batch(span)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stack_matches_per_basis_construction_bit_for_bit(self, m, k):
        rng = np.random.default_rng(10 * m + k)
        bases = self.mixed_stack(m, k, rng)
        stacked = Subspace.stack(bases)
        assert len(stacked) == len(bases)
        for i, (e, basis) in enumerate(zip(stacked, bases)):
            single = Subspace(basis)
            assert np.array_equal(e.basis, single.basis)
            if i % 2:
                assert e.graph is None and single.graph is None
                assert subspace_graph_matrix(e) is None
                continue
            assert np.array_equal(e.graph.matrix, single.graph.matrix)
            assert e.graph.norm == single.graph.norm == matrix_norm(single.graph.matrix)
            assert subspace_graph_matrix(e) is e.graph

    def test_non_orthonormal_basis_in_a_stack_is_refused(self):
        bases = self.mixed_stack(2, 2, np.random.default_rng(5))
        bases[3, 0, 1] += 1e-6
        with pytest.raises(ValueError) as single:
            Subspace(bases[3])
        with pytest.raises(ValueError) as stacked:
            Subspace.stack(bases)
        assert str(stacked.value) == str(single.value)

    def test_diagonal_error_of_2e_10_is_refused_either_way(self):
        basis = np.array([[1.0 + 1e-10], [0.0]])  # B^T B - 1 = 2e-10
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(basis)
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace.stack(np.stack([np.array([[1.0], [0.0]]), basis]))


def _reference_probe_checks(e, probes, L):
    """The per-probe hypothesis check, one probe at a time: the first
    failure raises, a probe's distance off the subspace before its distance
    from the axis point."""
    m, n = e.dim, e.ambient_dim
    probes = [np.asarray(v, dtype=float).reshape(-1) for v in probes]
    if len(probes) != m:
        raise ValueError(f"expected {m} probes, got {len(probes)}")
    budget = L / (3.0 * np.sqrt(m))
    for j, v in enumerate(probes):
        if v.shape[0] != n:
            raise ValueError(f"probe {j} has wrong ambient dimension")
        off = np.linalg.norm(v - e.basis @ (e.basis.T @ v))
        if off > SPAN_TOL:
            raise PreconditionViolated(
                f"probe {j} is off the subspace (distance {off:.3e})", index=j)
        far = np.linalg.norm(v - np.eye(n)[j])
        if far > budget * (1 + 1e-12) + 1e-15:
            raise PreconditionViolated(
                f"probe {j} too far from its axis point: {far:.6e} > {budget:.6e}",
                index=j)


def _probe_outcome(check, e, probes, L):
    """(exception type, index, message prefix), or None when accepted."""
    try:
        check(e, probes, L)
    except PreconditionViolated as exc:
        return "PreconditionViolated", exc.index, re.match(r"probe \d+ [a-z ]+", str(exc))[0]
    except ValueError as exc:
        return "ValueError", None, str(exc)
    return None


@st.composite
def probe_cases(draw):
    """A graph subspace, valid probes, then some probes moved off the
    subspace or off their axes by amounts clear of both tolerances, and
    possibly a wrong probe count or one probe of the wrong dimension."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = m + k
    L = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((k, m))
    a *= L / (8.0 * math.sqrt(m)) / max(matrix_norm(a), 1e-12) * rng.uniform(0.2, 1.0)
    e = Subspace.from_span(np.vstack([np.eye(m), a]))
    budget = L / (3.0 * math.sqrt(m))
    probes = []
    for j in range(m):
        w = np.eye(m)[j] + rng.uniform(-1.0, 1.0, m) * L / (16.0 * m)
        if draw(st.booleans()):  # off its axis, along the subspace
            u = rng.standard_normal(m)
            w = np.eye(m)[j] + 2.0 * budget * u / np.linalg.norm(u)
        v = np.concatenate([w, a @ w])
        if draw(st.booleans()):  # off the subspace, along a normal
            normal = rng.standard_normal(n)
            normal -= e.basis @ (e.basis.T @ normal)
            v = v + draw(st.sampled_from([1e-9, 1e-6, 1e-3])) * normal / np.linalg.norm(normal)
        probes.append(v)
    shape = draw(st.sampled_from(["ok", "ok", "fewer", "more", "dimension"]))
    if shape == "fewer":
        probes = probes[:-1]
    elif shape == "more":
        probes = probes + [probes[-1]]
    elif shape == "dimension":
        j = draw(st.integers(0, m - 1))
        probes[j] = np.append(probes[j], 0.0) if draw(st.booleans()) else probes[j][:-1]
    return e, probes, L


class TestGraphMatrixFromProbes:
    def test_exact_axis_probes_give_zero(self):
        for m, k in [(1, 1), (2, 2), (3, 1)]:
            n = m + k
            e = Subspace(np.eye(n)[:, :m])
            probes = [np.eye(n)[j] for j in range(m)]
            res = graph_matrix_from_probes(e, probes, 0.7)
            assert res.norm == pytest.approx(0.0, abs=1e-15)

    def test_line_slope_certified(self):
        e = Subspace.from_span(np.array([[1.0], [0.1]]))
        v = np.array([1.0, 0.1]) / math.sqrt(1.01)
        # probe distance to the axis point is about 0.0996 <= 0.3/3
        res = graph_matrix_from_probes(e, [v], 0.3)
        assert res.matrix[0, 0] == pytest.approx(0.1, abs=1e-12)
        assert res.norm <= 0.3

    def test_rejects_l_above_one(self):
        e = Subspace(np.eye(2)[:, :1])
        with pytest.raises(ValueError):
            graph_matrix_from_probes(e, [np.eye(2)[0]], 1.5)

    def test_rejects_off_subspace_probe(self):
        e = Subspace(np.eye(3)[:, :1])
        bad = np.array([1.0, 0.0, 0.05])
        with pytest.raises(PreconditionViolated) as err:
            graph_matrix_from_probes(e, [bad], 0.5)
        assert err.value.index == 0

    def test_rejects_far_probe(self):
        e = Subspace.from_span(np.array([[1.0], [0.9]]))
        v = np.array([1.0, 0.9]) / np.linalg.norm([1.0, 0.9])
        with pytest.raises(PreconditionViolated):
            graph_matrix_from_probes(e, [v], 0.5)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(probe_cases())
    def test_probe_checks_match_the_per_probe_reference(self, case):
        e, probes, L = case
        expected = _probe_outcome(_reference_probe_checks, e, probes, L)
        assert _probe_outcome(graph_matrix_from_probes, e, probes, L) == expected
        if expected is None:
            assert graph_matrix_from_probes(e, probes, L).norm <= L
        if len(probes) == e.dim and all(len(v) == e.ambient_dim for v in probes):
            # one (m, n) array, as the certifier passes it, is checked alike
            stacked = np.array(probes)
            assert _probe_outcome(graph_matrix_from_probes, e, stacked, L) == expected

    def test_lowest_failing_probe_wins(self):
        e = Subspace(np.eye(4)[:, :2])
        off_axis, off_span = np.array([0.5, 1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.1, 0.0])
        for probes, index, prefix in [
            ([off_span, off_axis], 0, "probe 0 is off the subspace"),
            ([off_axis, off_span], 0, "probe 0 too far from its axis point"),
            ([np.eye(4)[0], off_span + off_axis - np.eye(4)[0]], 1,
             "probe 1 is off the subspace"),
        ]:
            with pytest.raises(PreconditionViolated) as err:
                graph_matrix_from_probes(e, probes, 0.5)
            assert err.value.index == index
            assert str(err.value).startswith(prefix)

    def test_matches_rank_solve_oracle_randomized(self):
        # ground-truth slope matrices reconstructed through valid probes
        rng = np.random.default_rng(99)
        for _ in range(2000):
            a, e, probes, L = _random_probe_case(rng)
            res = graph_matrix_from_probes(e, probes, L)
            assert np.abs(res.matrix - a).max() < 1e-9
            assert res.norm <= L + 1e-12
            direct = subspace_graph_matrix(e)
            assert np.abs(res.matrix - direct.matrix).max() < 1e-12


def _random_probe_case(rng):
    """Subspace built from a known slope matrix plus valid probe points."""
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, 5))
    n = m + k
    L = float(rng.uniform(0.05, 1.0))
    a = rng.standard_normal((k, m))
    scale = L / (4.0 * math.sqrt(m)) / max(matrix_norm(a), 1e-12)
    a = a * scale * rng.uniform(0.2, 1.0)
    e = Subspace.from_span(np.vstack([np.eye(m), a]))
    probes = []
    for j in range(m):
        w = np.eye(m)[j] + rng.standard_normal(m) * L / (16.0 * m)
        probes.append(np.concatenate([w, a @ w]))
    return a, e, probes, L


@st.composite
def small_matrices(draw, shape=None):
    """A random n x m matrix U diag(s) V^T with a chosen smallest singular
    value: exactly zero, 1e-10 or 1e-8 of the largest, or random."""
    if shape is None:
        m = draw(st.integers(1, 3))
        n = draw(st.integers(m, 5))
    else:
        n, m = shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    smax = draw(st.floats(0.1, 10.0))
    ratio = draw(st.sampled_from([0.0, 1e-10, 1e-8, None]))
    svals = np.sort(rng.uniform(0.05, 1.0, m))[::-1] * smax
    svals[0] = smax
    if ratio is not None and m > 1:
        svals[-1] = ratio * smax
    u = random_rotation(n, rng)[:, :m]
    v = random_rotation(m, rng) if m > 1 else np.eye(1)
    return (u * svals) @ v.T


@st.composite
def small_stacks(draw, square=False):
    """A stack of 1-8 small_matrices() of one n x m shape; some have their
    last column zeroed or set to their first, so they are exactly singular."""
    m = draw(st.integers(1, 3))
    n = m if square else draw(st.integers(m, 5))
    mats = []
    for _ in range(draw(st.integers(1, 8))):
        mat = draw(small_matrices(shape=(n, m)))
        exact = draw(st.sampled_from([None, "zero", "repeat"]))
        if exact == "zero":
            mat[:, -1] = 0.0
        elif exact == "repeat":
            mat[:, -1] = mat[:, 0]
        mats.append(mat)
    return np.stack(mats)


def einsum_singular_extremes(mat):
    """The m <= 2 closed forms as written with einsum and trailing-axis
    reductions: the reference the entry-wise kernels must match bit for bit."""
    if mat.shape[-1] == 1:
        s = np.linalg.norm(mat[..., 0], axis=-1)
        return s, s
    a, b = mat[..., 0], mat[..., 1]
    g00, g11, g01 = (np.einsum("...i,...i->...", u, v) for u, v in ((a, a), (b, b), (a, b)))
    disc = np.sqrt(0.25 * (g00 - g11) ** 2 + g01 ** 2)
    smax = np.sqrt(0.5 * (g00 + g11) + disc)
    i, j = np.triu_indices(mat.shape[-2], 1)
    ri, rj = mat[..., i, :], mat[..., j, :]
    minors = ri[..., 0] * rj[..., 1] - ri[..., 1] * rj[..., 0]
    return smax, np.sqrt((minors * minors).sum(axis=-1)) / np.maximum(smax, 1e-300)


def sum_orthonormalize(jac):
    """The m <= 2 Gram-Schmidt written with np.linalg.norm and np.sum."""
    if jac.shape[-1] == 1:
        return jac / np.linalg.norm(jac, axis=-2, keepdims=True)
    a, b = jac[..., 0], jac[..., 1]
    q1 = a / np.linalg.norm(a, axis=-1, keepdims=True)
    w = b - np.sum(q1 * b, axis=-1, keepdims=True) * q1
    w = w - np.sum(q1 * w, axis=-1, keepdims=True) * q1
    return np.stack([q1, w / np.linalg.norm(w, axis=-1, keepdims=True)], axis=-1)


class TestEntrywiseKernels:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(small_stacks())
    def test_row_norm_matches_linalg_norm(self, mats):
        for rows in (mats, mats.swapaxes(-1, -2), mats[..., 0]):
            assert np.array_equal(row_norm(rows), np.linalg.norm(rows, axis=-1))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(small_stacks(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_left_product_matches_einsum(self, mats, p, seed):
        a = np.random.default_rng(seed).standard_normal((p, mats.shape[1]))
        got, ref = left_product(a, mats), np.einsum("ij,bjl->bil", a, mats)
        if mats.shape[-1] >= 2 or mats.shape[1] <= 2:
            assert np.array_equal(got, ref)
        else:
            # one column: einsum adds even and odd terms apart, not in order
            bound = 4e-16 * np.einsum("ij,bjl->bil", np.abs(a), np.abs(mats))
            assert (np.abs(got - ref) <= bound).all()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(small_stacks())
    def test_closed_forms_keep_their_bits(self, mats):
        if mats.shape[-1] > 2:
            return
        for got, ref in zip(_singular_extremes(mats), einsum_singular_extremes(mats)):
            assert np.array_equal(got, ref)
        full_rank = _singular_extremes(mats)[1] > 1e-12
        assert np.array_equal(_orthonormalize_batch(mats[full_rank]),
                              sum_orthonormalize(mats[full_rank]))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(small_stacks(square=True))
    def test_singular_flag_matches_max_rule(self, mats):
        m = mats.shape[-1]
        _, singular = _solve_linear(mats, np.ones(mats.shape[:-1]))
        det = mats[:, 0, 0] if m == 1 else np.linalg.det(mats)
        if m == 2:
            det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        expected = np.abs(det) <= 1e-14 * np.abs(mats).max(axis=(-1, -2)) ** m
        assert np.array_equal(singular, expected)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(small_stacks(square=True))
    def test_inverse_matches_lapack(self, mats):
        # numerically singular matrices have no inverse to agree on
        mats = mats[np.linalg.cond(mats) < 1e12]
        if not len(mats):
            return
        ref = np.linalg.inv(mats)
        # both are backward stable: they agree to rounding times the condition
        cond = np.linalg.cond(mats)
        err = np.abs(_stack_entries(_inverse_columns(_entries(mats))) - ref).max(axis=(-1, -2))
        assert (err <= 1e-14 * cond * np.abs(ref).max(axis=(-1, -2))).all()

    @pytest.mark.parametrize("top", [
        [[0.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[0.3, 0.3], [-0.7, -0.7]],
        [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]],
    ])
    def test_exactly_singular_top_is_vertical(self, top):
        top = np.array(top)
        for k in (1, 2):
            mats = np.stack([np.vstack([top, np.ones((k, len(top)))]),
                             np.vstack([np.eye(len(top)), np.ones((k, len(top)))])])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                slope, vertical, norm = span_slopes(_entries(mats))
            assert vertical.tolist() == [True, False]
            assert np.isnan(slope[0]).all() and np.isnan(norm[0])
            assert np.array_equal(slope[1], np.ones((k, len(top))))


    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_slopes_do_not_depend_on_vertical_rows_in_the_batch(self, m):
        # vertical spans hold a vector with zero top block; regular rows
        # keep their bits whether or not vertical rows share the batch
        rng = np.random.default_rng(m)
        k = 2
        regular = np.stack([
            Subspace.from_span(np.vstack([np.eye(m) + 0.3 * rng.standard_normal((m, m)),
                                          rng.standard_normal((k, m))])).basis
            for _ in range(40)])
        vertical = np.stack([
            Subspace.from_span(np.column_stack([
                rng.standard_normal((m + k, m - 1)),
                np.concatenate([np.zeros(m), rng.standard_normal(k)])])).basis
            for _ in range(15)])
        is_vertical = np.zeros(55, dtype=bool)
        is_vertical[rng.choice(55, 15, replace=False)] = True
        mixed = np.empty((55, m + k, m))
        mixed[is_vertical], mixed[~is_vertical] = vertical, regular
        alone, alone_vertical, _ = span_slopes(_entries(regular))
        slope, flags, _ = span_slopes(_entries(mixed))
        assert not alone_vertical.any()
        assert np.array_equal(flags, is_vertical)
        assert np.isnan(slope[is_vertical]).all()
        assert not np.isnan(slope[~is_vertical]).any()
        assert np.array_equal(slope[~is_vertical], alone)


@st.composite
def frame_jacobians(draw):
    """(R, J, s): a random frame R and Jacobian J = c R Q G.  Q is an
    orthonormal n x m basis whose top block has smallest singular value s
    (zero, clear of GRAPH_RANK_TOL on either side, or random), G a random
    m x m matrix of condition number up to 1e3 and c a scale in
    [1e-3, 1e3]: the frame slope of J is Q's, whatever G and c."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n, free = m + k, min(m, k)  # at most k top singular values below 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.ones(m)
    s[m - free:] = np.sort(rng.uniform(0.05, 1.0, free))[::-1]
    smin = draw(st.sampled_from([0.0, 1e-10, 5e-10, 2e-9, 1e-8, None]))
    if smin is not None:
        s[-1] = smin

    def rotation(d):
        return random_rotation(d, rng) if d > 1 else np.eye(1)

    w = np.zeros((k, m))
    w[:, m - free:] = rotation(k)[:, :free]
    v = rotation(m)
    q = np.vstack([(rotation(m) * s) @ v.T, (w * np.sqrt(1.0 - s * s)) @ v.T])
    g = rotation(m) * np.concatenate([[1.0], 10.0 ** rng.uniform(0.0, 3.0, m - 1)])
    frame = random_rotation(n, rng)
    return frame, frame @ q @ g * 10.0 ** rng.uniform(-3.0, 3.0), float(s.min())


class TestSpanSlopes:
    """Extraction reads slopes straight off the frame Jacobian R^T J; the
    reference orthonormalizes J first and reads the top block of that
    basis, in the frame, by LAPACK's SVD and inverse."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(frame_jacobians())
    def test_matches_the_orthonormal_basis(self, case):
        frame, jac, smin = case
        m = jac.shape[1]
        slope, vertical, norm = span_slopes(product_columns(frame.T, jac[None]))
        basis = frame.T @ _orthonormalize_batch(jac[None])[0]
        ref_vertical = np.linalg.svd(basis[:m], compute_uv=False)[-1] <= GRAPH_RANK_TOL
        scaled = span_slopes(product_columns(frame.T, 1e-6 * jac[None]))[1]
        if abs(smin - GRAPH_RANK_TOL) > 0.1 * GRAPH_RANK_TOL:  # clear of the threshold
            assert vertical[0] == ref_vertical == (smin <= GRAPH_RANK_TOL)
            assert scaled[0] == vertical[0]  # the Jacobians of scale_immersion(f, 1e-6)
        if vertical[0]:
            assert np.isnan(slope[0]).all() and np.isnan(norm[0])
        elif not ref_vertical:
            ref = basis[m:] @ np.linalg.inv(basis[:m])
            framed = frame.T @ jac
            cond = (np.linalg.svd(framed, compute_uv=False)[0]
                    / np.linalg.svd(framed[:m], compute_uv=False)[-1])
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(slope[0] - ref).max() <= 1e-14 * cond * scale
            assert norm[0] == row_norm(slope[0].ravel())


class TestSmallMatrixHelpers:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(small_matrices())
    def test_singular_extremes_match_svd(self, mat):
        svals = np.linalg.svd(mat, compute_uv=False)
        smax, smin = _singular_extremes(mat[None])
        assert smax[0] == pytest.approx(svals[0], rel=1e-14)
        assert abs(smin[0] - svals[-1]) <= 1e-14 * svals[0]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(small_matrices())
    def test_orthonormalize_matches_qr(self, mat):
        smin = np.linalg.svd(mat, compute_uv=False)[-1]
        if smin <= 1e-12:
            with pytest.raises(ValueError):
                Subspace.from_span(mat)
            return
        q, r = np.linalg.qr(mat)
        q = q * np.sign(np.diagonal(r))
        basis = _orthonormalize_batch(mat[None])[0]
        cond = np.linalg.cond(mat)
        assert np.abs(basis - q).max() <= 1e-14 * cond
        assert np.abs(basis.T @ basis - np.eye(mat.shape[1])).max() <= 1e-14
        assert np.array_equal(Subspace.from_span(mat).basis, basis)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(frame_jacobians())
    def test_graph_slopes_match_svd_and_inverse(self, case):
        # the certifier's graph of an orthonormal basis against LAPACK's SVD
        # and inverse of the basis's top block
        frame, jac, _ = case
        m = jac.shape[1]
        basis = frame.T @ _orthonormalize_batch(jac[None])[0]
        graph = Subspace(basis).graph
        smin = np.linalg.svd(basis[:m], compute_uv=False)[-1]
        if abs(smin - GRAPH_RANK_TOL) > 0.1 * GRAPH_RANK_TOL:  # clear of the threshold
            assert (graph is None) == (smin <= GRAPH_RANK_TOL)
        if graph is not None and smin > GRAPH_RANK_TOL:
            expected = basis[m:] @ np.linalg.inv(basis[:m])
            # backward stable: rounding times the condition 1 / smin
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(graph.matrix - expected).max() <= 1e-14 / smin * scale
            assert graph.norm == matrix_norm(graph.matrix)

    @pytest.mark.parametrize("s", [0.0, 1e-8])
    def test_rotated_two_by_two_vertical_threshold(self, s):
        # orthonormal bases whose tops are rotations of diag(1, s): singular
        # tops are vertical, tops ten times above the threshold are not
        rng = np.random.default_rng(5)
        bases = []
        for _ in range(2000):
            v = random_rotation(2, rng)
            bases.append(np.vstack([random_rotation(2, rng) @ np.diag([1.0, s]) @ v.T,
                                    [0.0, math.sqrt(1.0 - s * s)] @ v.T]))
        vertical = np.array([e.graph is None for e in Subspace.stack(bases)])
        assert vertical.all() == (s == 0.0)
        assert vertical.any() == (s == 0.0)
