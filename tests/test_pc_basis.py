"""Unit tests for the orthonormal PC basis and moment tensors.

Expected values for derived cases come from independent oracles: analytic
Gaussian/uniform moments, numpy.polynomial evaluation (a different code path
than the recurrences in the module), and direct tensor-grid quadrature.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e as npherme
from numpy.polynomial import legendre as npleg

import oracles
from sepfeti import pc_basis as pcb


def oracle_univariate(kind: str, n: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal psi_n via numpy.polynomial, bypassing the module recurrences."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    if kind == "hermite":
        return npherme.hermeval(x, coeffs) / math.sqrt(math.factorial(n))
    return npleg.legval(x, coeffs) * math.sqrt(2 * n + 1)


def oracle_quadrature(kind: str, nq: int) -> tuple[np.ndarray, np.ndarray]:
    if kind == "hermite":
        x, w = npherme.hermegauss(nq)
        return x, w / w.sum()
    x, w = npleg.leggauss(nq)
    return x, w / 2.0


# ---------------------------------------------------------------------------
# index sets


def test_index_set_d2_p2_enumerated_by_hand():
    idx = pcb.build_index_set(2, 2)
    expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert [tuple(row) for row in idx.indices] == expected


def test_index_set_d4_p3_cardinality():
    # 7! / (3! 4!) = 35
    assert len(pcb.build_index_set(4, 3)) == 35


def test_index_set_constant_only():
    idx = pcb.build_index_set(1, 0)
    assert idx.indices.tolist() == [[0]]


@pytest.mark.parametrize("d", range(1, 13))
@pytest.mark.parametrize("p", range(0, 7))
def test_index_set_cardinality_closed_form(d, p):
    idx = pcb.build_index_set(d, p)
    assert len(idx) == math.comb(p + d, d)
    assert len({tuple(r) for r in idx.indices}) == len(idx)
    assert tuple(idx.indices[0]) == (0,) * d


def test_index_set_ordering_graded():
    idx = pcb.build_index_set(3, 4)
    degrees = idx.indices.sum(axis=1)
    assert (np.diff(degrees) >= 0).all()


@pytest.mark.parametrize("d", range(1, 7))
def test_index_set_lower_order_is_prefix(d):
    # the residual estimator evaluates one basis per germ and slices both
    # the solution's and the field's sets from it
    for q in range(0, 7):
        big = pcb.build_index_set(d, q).indices
        for p in range(0, q + 1):
            small = pcb.build_index_set(d, p).indices
            np.testing.assert_array_equal(big[: len(small)], small)


def test_index_set_rejects_bad_args():
    with pytest.raises(ValueError):
        pcb.build_index_set(0, 2)
    with pytest.raises(ValueError):
        pcb.build_index_set(2, -1)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_zero_index_is_one():
    for fam in (pcb.HERMITE_GAUSSIAN, pcb.LEGENDRE_UNIFORM):
        idx = pcb.build_index_set(3, 2)
        vals = oracles.eval_multivariate(fam, idx, np.array([0.3, -0.2, 0.9]))
        assert vals[0] == 1.0


def test_eval_hermite_degree_one_is_identity():
    idx = pcb.build_index_set(1, 1)
    vals = oracles.eval_multivariate(pcb.HERMITE_GAUSSIAN, idx, np.array([1.7]))
    assert vals[1] == pytest.approx(1.7, abs=1e-15)


def test_eval_legendre_p2_at_one_is_sqrt5():
    idx = pcb.build_index_set(1, 2)
    vals = oracles.eval_multivariate(pcb.LEGENDRE_UNIFORM, idx, np.array([1.0]))
    assert vals[2] == pytest.approx(math.sqrt(5.0), abs=1e-14)


def test_eval_dimension_mismatch():
    idx = pcb.build_index_set(2, 1)
    with pytest.raises(ValueError):
        oracles.eval_multivariate(pcb.HERMITE_GAUSSIAN, idx, np.array([1.0]))


def test_eval_legendre_outside_support_rejected():
    idx = pcb.build_index_set(1, 1)
    with pytest.raises(ValueError):
        oracles.eval_multivariate(pcb.LEGENDRE_UNIFORM, idx, np.array([1.5]))


@pytest.mark.parametrize("fam", [pcb.HERMITE_GAUSSIAN, pcb.LEGENDRE_UNIFORM])
@pytest.mark.parametrize("d, p", [(1, 3), (2, 4), (4, 6), (6, 3), (11, 3)])
def test_eval_batch_equals_per_index_product(fam, d, p):
    """Every column is psi_{i_1}(x_1) * ... * psi_{i_d}(x_d), multiplied in
    dimension order from 1.0: bit for bit, not to a tolerance."""
    idx = pcb.build_index_set(d, p)
    x = np.random.default_rng(d * 10 + p).uniform(-1.0, 1.0, (37, d))
    tables = [fam.eval_table(p, x[:, j]) for j in range(d)]
    expected = np.empty((x.shape[0], len(idx)))
    for k, index in enumerate(idx.indices):
        column = np.ones(x.shape[0])
        for j, degree in enumerate(index):
            column = column * tables[j][degree]
        expected[:, k] = column
    got = pcb.eval_multivariate_batch(fam, idx, x)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("fam", [pcb.HERMITE_GAUSSIAN, pcb.LEGENDRE_UNIFORM])
@pytest.mark.parametrize("d, p", [(2, 2), (9, 3), (11, 3), (20, 1), (10, 6), (3, 0)])
def test_eval_batch_skips_zero_degrees_bitwise(fam, d, p):
    """Multiplying only the factors with a nonzero degree gives the bits of
    multiplying every factor, psi_0 = 1 included."""
    idx = pcb.build_index_set(d, p)
    x = np.random.default_rng(d * 10 + p).uniform(-1.0, 1.0, (23, d))
    got = pcb.eval_multivariate_batch(fam, idx, x)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, oracles.eval_multivariate_batch_all_rows(fam, idx, x))


@pytest.mark.parametrize("kind,fam", [("hermite", pcb.HERMITE_GAUSSIAN), ("legendre", pcb.LEGENDRE_UNIFORM)])
def test_univariate_values_match_numpy_polynomial(kind, fam):
    x = np.linspace(-1.0, 1.0, 7)
    table = fam.eval_table(6, x)
    for n in range(7):
        np.testing.assert_allclose(table[n], oracle_univariate(kind, n, x), atol=1e-12)


@pytest.mark.parametrize("kind,fam", [("hermite", pcb.HERMITE_GAUSSIAN), ("legendre", pcb.LEGENDRE_UNIFORM)])
def test_gram_identity_under_exact_quadrature(kind, fam):
    idx = pcb.build_index_set(2, 3)
    x, w = oracle_quadrature(kind, 8)
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    wts = np.outer(w, w).ravel()
    basis = pcb.eval_multivariate_batch(fam, idx, pts)
    gram = basis.T @ (wts[:, None] * basis)
    np.testing.assert_allclose(gram, np.eye(len(idx)), atol=1e-10)


# ---------------------------------------------------------------------------
# triple tensors


def test_triple_tensor_gram_slice():
    t = pcb.univariate_triple_tensor(pcb.HERMITE_GAUSSIAN, 4, 4, 4)
    np.testing.assert_allclose(t[0], np.eye(5), atol=1e-12)


def test_triple_tensor_hermite_known_entries():
    t = pcb.univariate_triple_tensor(pcb.HERMITE_GAUSSIAN, 4, 4, 4)
    assert t[1, 1, 0] == pytest.approx(1.0, abs=1e-12)
    # E[psi_2 xi^2] with psi_2 = (xi^2 - 1)/sqrt(2): (E[xi^4] - E[xi^2])/sqrt(2) = sqrt(2)
    assert t[2, 1, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_triple_tensor_symmetry_and_parity():
    for fam in (pcb.HERMITE_GAUSSIAN, pcb.LEGENDRE_UNIFORM):
        t = pcb.univariate_triple_tensor(fam, 5, 5, 5)
        np.testing.assert_allclose(t, t.transpose(1, 0, 2), atol=1e-12)
        np.testing.assert_allclose(t, t.transpose(0, 2, 1), atol=1e-12)
        for a in range(6):
            for b in range(6):
                for c in range(6):
                    if (a + b + c) % 2 == 1 or a > b + c or b > a + c or c > a + b:
                        assert abs(t[a, b, c]) < 1e-12


def test_triple_tensor_exact_zero_off_selection_rule():
    for fam in (pcb.HERMITE_GAUSSIAN, pcb.LEGENDRE_UNIFORM):
        for A, B, C in itertools.product(range(7), repeat=3):
            t = pcb.univariate_triple_tensor(fam, A, B, C)
            a, b, c = np.ogrid[: A + 1, : B + 1, : C + 1]
            rule = ((a + b + c) % 2 == 0) & (np.abs(a - b) <= c) & (c <= a + b)
            rule = np.broadcast_to(rule, t.shape)
            quadrature = oracles.quadrature_triple_tensor(fam, A, B, C)
            np.testing.assert_array_equal(t[rule], quadrature[rule])
            assert np.all(t[~rule] == 0.0) and np.all(t[rule] != 0.0)
            assert np.abs(quadrature[~rule]).max(initial=0.0) < 1e-13


def test_multivariate_triple_moment_examples():
    t = pcb.univariate_triple_tensor(pcb.HERMITE_GAUSSIAN, 4, 2, 2)
    z = np.zeros(3, dtype=int)
    assert oracles.multivariate_triple_moment(z, z, z, t) == pytest.approx(1.0)
    a = np.array([1, 0])
    c = np.array([2, 0])
    t2 = pcb.univariate_triple_tensor(pcb.HERMITE_GAUSSIAN, 2, 2, 2)
    assert oracles.multivariate_triple_moment(a, a, np.zeros(2, dtype=int), t2) == pytest.approx(1.0)
    assert oracles.multivariate_triple_moment(a, a, c, t2) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_multivariate_triple_moment_cap_exceeded():
    t = pcb.univariate_triple_tensor(pcb.HERMITE_GAUSSIAN, 2, 1, 1)
    with pytest.raises(pcb.SizeError):
        oracles.multivariate_triple_moment(
            np.array([3]), np.array([0]), np.array([0]), t
        )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["hermite", "legendre"]),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_triple_moment_matches_direct_quadrature(kind, d, data):
    """Product-of-univariate factorization vs direct multivariate quadrature."""
    fam = {"hermite": pcb.HERMITE_GAUSSIAN, "legendre": pcb.LEGENDRE_UNIFORM}[kind]
    degs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
            ),
            min_size=d,
            max_size=d,
        )
    )
    idx_a = np.array([t[0] for t in degs])
    idx_b = np.array([t[1] for t in degs])
    idx_c = np.array([t[2] for t in degs])
    tensor = pcb.univariate_triple_tensor(fam, 4, 4, 4)
    got = oracles.multivariate_triple_moment(idx_a, idx_b, idx_c, tensor)

    x, w = oracle_quadrature(kind, 9)
    expected = 1.0
    for k in range(d):
        fa = oracle_univariate(kind, int(idx_a[k]), x)
        fb = oracle_univariate(kind, int(idx_b[k]), x)
        fc = oracle_univariate(kind, int(idx_c[k]), x)
        expected *= float(np.sum(w * fa * fb * fc))
    assert got == pytest.approx(expected, abs=1e-10)


def test_triple_moment_matrix_matches_elementwise():
    fam = pcb.HERMITE_GAUSSIAN
    idx = pcb.build_index_set(2, 2)
    tensor = pcb.univariate_triple_tensor(fam, 4, 2, 2)
    j = np.array([2, 1])
    mat = pcb.triple_moment_stack(fam, j[None], idx).dense()[0]
    for a in range(len(idx)):
        for b in range(len(idx)):
            expected = oracles.multivariate_triple_moment(
                j, idx.indices[a], idx.indices[b], tensor
            )
            assert mat[a, b] == pytest.approx(expected, abs=1e-13)


STACK_CASES = [(6, 3, 6), (4, 3, 6), (11, 3, 1), (9, 3, 1), (2, 2, 4), (1, 3, 6), (3, 2, 4)]


def test_triple_moment_stack_equals_dense_product():
    """Every stored value is bitwise the left-to-right product of its
    univariate moments; every entry left out is rounding in that product."""
    for fam in (pcb.HERMITE_GAUSSIAN, pcb.LEGENDRE_UNIFORM):
        for d, p, q in STACK_CASES:
            idx = pcb.build_index_set(d, p)
            modes = pcb.build_index_set(d, q).indices
            G = pcb.triple_moment_stack(fam, modes, idx)
            assert G.P == len(idx) and G.by_mode.shape == (len(modes), len(idx) ** 2)
            assert G.by_mode.has_canonical_format and np.all(G.by_mode.data != 0.0)
            dense = G.dense()
            stored = dense != 0.0
            expected = oracles.dense_triple_moment_stack(fam, modes, idx)
            np.testing.assert_array_equal(dense[stored], expected[stored])
            assert np.abs(expected[~stored]).max(initial=0.0) <= 1e-14


def test_triple_moment_stack_rows_without_nonzeros():
    # modes of total degree above 2p meet no pair of basis functions
    fam = pcb.LEGENDRE_UNIFORM
    idx = pcb.build_index_set(2, 1)
    modes = pcb.build_index_set(2, 3).indices
    G = pcb.triple_moment_stack(fam, modes, idx)
    empty = modes.sum(axis=1) > 2
    np.testing.assert_array_equal(np.diff(G.by_mode.indptr) > 0, ~empty)
    expected = oracles.dense_triple_moment_stack(fam, modes, idx)
    np.testing.assert_allclose(G.dense(), expected, rtol=0.0, atol=1e-14)
    assert pcb.triple_moment_stack(fam, modes[:0], idx).dense().shape == (0, len(idx), len(idx))
    with pytest.raises(ValueError, match="distinct"):
        pcb.triple_moment_stack(fam, modes[[0, 1, 1]], idx)


# ---------------------------------------------------------------------------
# projection


def test_projection_of_constant():
    idx = pcb.build_index_set(2, 2)
    coeffs = oracles.projection_coefficients(
        lambda pts: np.full(pts.shape[0], 3.25), idx, pcb.HERMITE_GAUSSIAN, 6
    )
    expected = np.zeros(len(idx))
    expected[0] = 3.25
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_projection_of_coordinate():
    idx = pcb.build_index_set(2, 1)
    coeffs = oracles.projection_coefficients(
        lambda pts: pts[:, 0], idx, pcb.HERMITE_GAUSSIAN, 6
    )
    # order: (0,0), (1,0), (0,1)
    np.testing.assert_allclose(coeffs, [0.0, 1.0, 0.0], atol=1e-12)


def test_projection_exponential_analytic():
    # E[exp(xi) psi_n] = exp(1/2) / sqrt(n!) for the orthonormal Hermite basis
    idx = pcb.build_index_set(1, 3)
    coeffs = oracles.projection_coefficients(
        lambda pts: np.exp(pts[:, 0]), idx, pcb.HERMITE_GAUSSIAN, 30
    )
    e = math.exp(0.5)
    expected = [e, e, e / math.sqrt(2.0), e / math.sqrt(6.0)]
    np.testing.assert_allclose(coeffs, expected, atol=1e-8)
