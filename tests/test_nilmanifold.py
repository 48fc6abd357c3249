"""Tests for the step-2 nilpotent group, lattice, and automorphism."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcert.deformation import DeformedMap
from nilcert.nilmanifold import (
    DIM,
    AutomorphismSpec,
    LatticeSpec,
    bch_multiply,
    bracket,
)

coord = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
vec9 = st.lists(coord, min_size=DIM, max_size=DIM).map(np.array)


def test_bracket_structure_constants():
    # [X_i, Y_i] = Z_i within each factor; everything else vanishes.
    basis = np.eye(DIM)
    for i in range(3):
        x, y, z = 3 * i, 3 * i + 1, 3 * i + 2
        out = bracket(basis[x], basis[y])
        expected = np.zeros(DIM)
        expected[z] = 1.0
        assert np.array_equal(out, expected)
        assert np.array_equal(bracket(basis[y], basis[x]), -expected)
        # Central directions commute with everything.
        assert not bracket(basis[z], basis[x]).any()
    # Cross-factor brackets vanish.
    assert not bracket(basis[0], basis[4]).any()


@given(vec9, vec9)
def test_bracket_bilinear_antisymmetric(u, v):
    assert np.allclose(bracket(u, v), -bracket(v, u), atol=1e-15)
    assert np.allclose(
        bracket(2.0 * u, v), 2.0 * bracket(u, v), atol=1e-12
    )


@given(vec9, vec9, vec9)
def test_group_law_associative(u, v, w):
    left = bch_multiply(bch_multiply(u, v), w)
    right = bch_multiply(u, bch_multiply(v, w))
    assert np.max(np.abs(left - right)) < 1e-12


@given(vec9)
def test_group_inverse_and_identity(u):
    # The group inverse in logarithmic coordinates is plain negation.
    assert np.max(np.abs(bch_multiply(u, -u))) < 1e-12
    assert np.array_equal(bch_multiply(u, np.zeros(DIM)), u)
    assert np.array_equal(bch_multiply(np.zeros(DIM), u), u)


def test_automorphism_diagonal_and_grading(eigendata, auto):
    l1, l2, l3 = eigendata.values
    d = auto.diag
    # Three blocks (l, l, l^2), one per factor, in chain order.
    assert d[0] == d[1] == l1 and d[2] == l1 * l1
    assert d[3] == d[4] == l2 and d[5] == l2 * l2
    assert d[6] == d[7] == l3 and d[8] == l3 * l3


@given(vec9, vec9)
def test_automorphism_preserves_group_law(u, v):
    eig_rows = [[2, -3, 1], [-3, 6, -2], [1, -2, 1]]
    from nilcert.algebraic_core import EigenData, IntegerMatrixSpec

    auto = AutomorphismSpec.from_eigendata(
        EigenData.from_matrix(IntegerMatrixSpec.from_rows(eig_rows))
    )
    lhs = auto.apply(bch_multiply(u, v))
    rhs = bch_multiply(auto.apply(u), auto.apply(v))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_automorphism_volume_and_frame_derivative(auto):
    mat = auto.matrix
    assert np.allclose(np.diag(np.diag(mat)), mat)
    assert abs(np.prod(auto.diag) - 1.0) < 1e-12
    # The automorphism's frame derivative is its matrix at every point.
    assert np.array_equal(DeformedMap(auto).frame_jacobian(np.ones(DIM)), mat)
    lo, hi = auto.expansion_bounds()
    assert lo == min(abs(d) for d in auto.diag)
    assert hi == max(abs(d) for d in auto.diag)


def test_lattice_covolume_and_shortest_vector(lattice):
    # The generator matrix determinant is (root Vandermonde)^3 / 8 = 729/8.
    assert abs(lattice.covolume() - 91.125) < 1e-9
    assert lattice.shortest_generator_norm() > 0.4


def test_lattice_closure_and_automorphism_integrality(lattice, auto):
    assert lattice.bch_closure_residual() < 1e-9
    assert lattice.automorphism_integrality_residual(auto) < 1e-9


def test_power_reduction_is_exact(lattice, eigendata):
    # lam^p reduced against the cubic gives exact rational coordinates
    # in (1, lam, lam^2); evaluating at each root reproduces lam^p.
    for p in (3, 4, 7, 11):
        c0, c1, c2 = lattice.power_reduction(p)
        assert isinstance(c0, Fraction)
        for lam in eigendata.values:
            val = float(c0) + float(c1) * lam + float(c2) * lam * lam
            assert abs(val - lam**p) < 1e-6 * max(1.0, lam**p)


def test_reduce_mod_lattice_shrinks_and_stays_in_coset(lattice):
    rng = np.random.default_rng(5)
    gen = lattice.basis
    for _ in range(25):
        x = rng.normal(size=DIM) * 3.0
        red = lattice.reduce(x)
        assert np.linalg.norm(red) <= np.linalg.norm(x) + 1e-12
        # red = gamma^{-1} * x for a lattice element gamma, so
        # gamma = x * red^{-1}; check it is (near-)integral in the
        # generator coordinates.
        gamma = bch_multiply(x, -red)
        coords = np.linalg.solve(gen, gamma)
        assert np.max(np.abs(coords - np.round(coords))) < 1e-6


def test_reduce_fixed_points_near_origin(lattice):
    # Small representatives are already reduced.
    x = np.full(DIM, 0.01)
    assert np.array_equal(lattice.reduce(x), x)


def test_lattice_generators_shape_and_rank(lattice):
    gen = lattice.basis
    assert gen.shape == (DIM, DIM)
    assert np.linalg.matrix_rank(gen) == DIM


def _scalar_reduce(lattice, v):
    """One point at a time, with numpy scalars: the oracle for the batched
    Babai reduction."""
    gso, gso_sq = lattice._gso, lattice._gso_sq
    best = cur = v
    best_n = float(np.linalg.norm(v))
    for _ in range(2):
        rem = cur.copy()
        gamma = np.zeros(DIM)
        for j in range(DIM - 1, -1, -1):
            cj = np.round((gso[:, j] @ rem) / gso_sq[j])
            if cj != 0.0:
                step = cj * lattice.basis[:, j]
                rem -= step
                gamma += step
        if not np.any(gamma):
            break
        cur = cur - gamma - 0.5 * bracket(gamma, cur)
        n = float(np.linalg.norm(cur))
        if n < best_n:
            best, best_n = cur, n
    return best


def _reduce_oracle_points(lattice):
    rng = np.random.default_rng(11)
    gso, gso_sq = lattice._gso, lattice._gso_sq
    # Random points over several scales.
    bulk = rng.normal(size=(800, DIM)) * rng.uniform(1e-3, 20.0, size=(800, 1))
    # Lattice-generator translates of points inside a support ball.
    inside = rng.normal(size=(500, DIM))
    inside *= rng.uniform(0.0, 0.05, size=(500, 1)) / np.linalg.norm(inside, axis=1)[:, None]
    translates = inside + (lattice.basis @ rng.integers(-2, 3, size=(DIM, 500))).T
    # Fixed points near 0, signed zeros included.
    near_zero = rng.normal(size=(300, DIM)) * np.geomspace(1e-18, 1e-2, 300)[:, None]
    near_zero[:20] = 0.0
    near_zero[10:20] = -0.0
    # Babai coefficient along the last GSO direction within 1e-12 of k + 1/2.
    base = rng.normal(size=(500, DIM)) * 2.0
    coef = base @ gso[:, -1] / gso_sq[-1]
    target = np.floor(coef) + 0.5 + rng.uniform(-1e-12, 1e-12, size=500)
    half = base + (target - coef)[:, None] * gso[:, -1]
    return np.concatenate([bulk, translates, near_zero, half]), half


def test_batched_reduce_matches_scalar_oracle_bit_for_bit(lattice):
    points, half = _reduce_oracle_points(lattice)
    assert points.shape[0] >= 2000
    coef = half @ lattice._gso[:, -1] / lattice._gso_sq[-1]
    assert np.max(np.abs(coef - np.floor(coef) - 0.5)) < 1.1e-12
    expected = np.array([_scalar_reduce(lattice, v) for v in points])
    batched = lattice.reduce(points)
    alone = np.array([lattice.reduce(v) for v in points])
    for got in (batched, alone):
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    # Both passes and the best-norm choice are exercised.
    assert not np.array_equal(batched, points)
    assert np.any(np.all(batched == points, axis=1))
