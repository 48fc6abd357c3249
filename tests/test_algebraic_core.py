"""Tests for exact integer-matrix spectral certification."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcert.algebraic_core import (
    CHAIN_RELATIONS,
    EigenData,
    IntegerMatrixSpec,
    Interval,
    RootIsolationError,
    char_poly,
    check_irreducible,
    conjugate_eval,
    isolate_real_roots,
    poly_mulmod,
    verify_eigenvalue_condition,
)

DEFAULT_ROWS = [[2, -3, 1], [-3, 6, -2], [1, -2, 1]]


def test_char_poly_exact_coefficients():
    poly = char_poly(IntegerMatrixSpec.from_rows(DEFAULT_ROWS))
    assert poly == (-1, 6, -9, 1)


shear = st.tuples(
    st.sampled_from([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]),
    st.integers(min_value=-2, max_value=2),
)


def _unimodular(shears) -> list[list[int]]:
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for (i, j), k in shears:
        e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        e[i][j] = k
        m = [
            [sum(m[r][t] * e[t][c] for t in range(3)) for c in range(3)]
            for r in range(3)
        ]
    return m


@given(st.lists(shear, min_size=1, max_size=4))
def test_char_poly_matches_numpy(shears):
    rows = _unimodular(shears)
    poly = char_poly(IntegerMatrixSpec.from_rows(rows))
    arr = np.array(rows, dtype=float)
    # Ascending coefficients of det(xI - M): (-det, minors, -trace, 1).
    assert poly[3] == 1
    assert poly[2] == -round(np.trace(arr))
    assert poly[0] == -round(np.linalg.det(arr))
    evals = np.linalg.eigvals(arr)
    sum_pairs = (
        evals[0] * evals[1] + evals[0] * evals[2] + evals[1] * evals[2]
    )
    assert abs(poly[1] - sum_pairs.real) < 1e-6 * max(1.0, abs(sum_pairs))


def test_matrix_spec_rejects_invalid_input():
    with pytest.raises(ValueError):
        IntegerMatrixSpec.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        IntegerMatrixSpec(((1.5, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        # Volume is not preserved unless the determinant is a unit.
        IntegerMatrixSpec.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_irreducibility_default_true_examples_false():
    assert check_irreducible((-1, 6, -9, 1))
    # (x - 1)^3: identity matrix.
    assert not check_irreducible((-1, 3, -3, 1))
    # x^3 - 1: cyclic permutation matrix.
    assert not check_irreducible((-1, 0, 0, 1))


def test_root_isolation_widths_and_polynomial_residual():
    eig = EigenData.from_matrix(
        IntegerMatrixSpec.from_rows(DEFAULT_ROWS), tol=1e-12
    )
    for iv in eig.intervals:
        assert float(iv.width) < 1e-12
    for lam in eig.values:
        assert abs(lam**3 - 9 * lam**2 + 6 * lam - 1) < 1e-12
    # Enclosures are ascending and pairwise disjoint.
    assert eig.intervals[0].hi < eig.intervals[1].lo < eig.intervals[1].hi
    assert eig.intervals[1].hi < eig.intervals[2].lo
    # Floats live inside their own enclosures.
    for lam, iv in zip(eig.values, eig.intervals):
        lo, hi = iv.to_floats()
        assert lo <= lam <= hi


def test_root_isolation_rejects_repeated_and_complex_roots():
    with pytest.raises(RootIsolationError):
        isolate_real_roots((-1, 3, -3, 1))  # triple root at 1
    with pytest.raises(RootIsolationError):
        isolate_real_roots((-1, 0, 0, 1))  # one real, two complex


def test_eigenvalue_chain_certified_with_margin(eigendata):
    report = verify_eigenvalue_condition(eigendata)
    assert report.ok and not report.indeterminate
    assert len(report.states) == len(CHAIN_RELATIONS)
    assert min(report.margins) >= 0.09
    assert "ok" in report.describe()


def test_chain_violation_detected():
    # Ascending values violating r2^2 < r1.
    fake = EigenData.from_values([0.1, 0.9, 11.2])
    report = verify_eigenvalue_condition(fake)
    assert report.failed
    assert report.states[1] is False


def test_chain_indeterminate_on_wide_enclosures():
    fake = EigenData.from_values([0.283, 0.426, 8.29], width=0.3)
    report = verify_eigenvalue_condition(fake)
    assert report.indeterminate and not report.failed


def test_refinement_narrows_enclosures(eigendata):
    finer = eigendata.refined(1e-14)
    for a, b in zip(finer.intervals, eigendata.intervals):
        assert a.width <= b.width
        assert b.lo <= a.lo and a.hi <= b.hi
    for v1, v2 in zip(finer.values, eigendata.values):
        assert abs(v1 - v2) < 1e-12


def test_product_of_roots_is_determinant(eigendata):
    assert eigendata.check_product(1.0)
    prod = eigendata.product_interval()
    assert prod.contains(Fraction(1))
    assert float(prod.width) < 1e-10


def test_interval_arithmetic_is_exact():
    a = Interval(Fraction(1, 3), Fraction(1, 2))
    b = Interval(Fraction(-2), Fraction(3))
    assert (a + b).lo == Fraction(1, 3) - 2
    assert (a * b).contains(Fraction(1, 3) * 3)
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_conjugate_eval_respects_ring_structure(eigendata):
    poly = eigendata.poly
    # (r * r) * r == r^2 * r reduced mod the cubic: compare both orders.
    sq = poly_mulmod((0, 1, 0), (0, 1, 0), poly)
    cube_a = poly_mulmod(sq, (0, 1, 0), poly)
    cube_b = poly_mulmod((0, 1, 0), sq, poly)
    assert cube_a == cube_b
    # Evaluate r^3 via the reduction and directly; both enclose lam^3.
    for idx in (1, 2, 3):
        lam = eigendata.values[idx - 1]
        enclosed = conjugate_eval(cube_a, idx, eigendata)
        value = float(enclosed.mid)
        assert abs(value - lam**3) < 1e-9
        assert enclosed.contains(Fraction(value)) or (
            float(enclosed.width) < 1e-9
        )


def test_conjugate_eval_sigma_cycles_roots(eigendata):
    # The recorded permutation is the 3-cycle 1 -> 2 -> 3 -> 1.
    sigma = eigendata.sigma
    assert sigma == {1: 2, 2: 3, 3: 1}
    seen = {sigma[1], sigma[2], sigma[3]}
    assert seen == {1, 2, 3}


def test_poly_mulmod_requires_monic_modulus():
    with pytest.raises(ValueError):
        poly_mulmod((1, 0, 0), (1, 0, 0), (1, 0, 0, 2))


@given(
    st.tuples(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)
    ),
    st.tuples(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)
    ),
)
def test_poly_mulmod_matches_float_evaluation(a, b):
    poly = (-1, 6, -9, 1)
    eig = EigenData.from_matrix(IntegerMatrixSpec.from_rows(DEFAULT_ROWS))
    prod = poly_mulmod(a, b, poly)
    for idx in (1, 2, 3):
        lam = eig.values[idx - 1]
        va = a[0] + a[1] * lam + a[2] * lam * lam
        vb = b[0] + b[1] * lam + b[2] * lam * lam
        vp = float(prod[0]) + float(prod[1]) * lam + float(prod[2]) * lam * lam
        assert abs(va * vb - vp) < 1e-7 * max(1.0, abs(va * vb))
