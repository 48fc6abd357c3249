"""Tests for the radial rotation profile and the deformed map."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcert import _kernels
from nilcert.deformation import (
    DeformationError,
    DeformedMap,
    LocalRotationMap,
    ProfileError,
    RotationPlane,
    make_profile,
    psi_eval,
    psi_slope,
)
from nilcert.nilmanifold import DIM
from test_kernels import _ref_h_apply, _ref_h_jacobian, _ref_radius


def _fd_jacobian(fn, x, h=1e-7):
    out = np.empty((DIM, DIM))
    for j in range(DIM):
        step = np.zeros(DIM)
        step[j] = h
        out[:, j] = (fn(x + step) - fn(x - step)) / (2 * h)
    return out


def test_profile_basic_shape(profile, collapse_angle):
    assert psi_eval(profile, 0.0) == collapse_angle
    assert psi_eval(profile, profile.support_radius) == 0.0
    assert psi_eval(profile, 1.0) == 0.0
    assert profile.support_radius < 0.3
    # Monotone non-increasing in radius.
    ts = np.linspace(0.0, profile.support_radius * 1.1, 400)
    vals = psi_eval(profile, ts)
    assert np.all(np.diff(vals) <= 1e-15)


def test_profile_slope_budget_on_log_grid(profile):
    ts = np.geomspace(1e-12, profile.support_radius, 10_000)
    worst = max(abs(t * psi_slope(profile, t)) for t in ts)
    assert worst < profile.eps
    assert profile.sup_t_slope < profile.eps


def test_profile_plateau_constant_near_origin(profile, collapse_angle):
    plateau_end = profile.b - profile.w
    for t in np.linspace(0.0, plateau_end * 0.999, 17):
        assert psi_eval(profile, float(t)) == collapse_angle
        assert psi_slope(profile, float(t)) == 0.0


@given(st.floats(min_value=1e-10, max_value=0.5))
def test_profile_slope_budget_random_radii(t):
    profile = make_profile(1.1390942143376726, 0.05)
    assert abs(t * psi_slope(profile, t)) < profile.eps


def test_profile_rejects_invalid_parameters():
    with pytest.raises(ProfileError):
        make_profile(0.0, 0.05)
    with pytest.raises(ProfileError):
        make_profile(1.2, -0.1)


def test_small_budget_profiles_still_valid():
    p = make_profile(1.1390942143376726, 1e-8)
    assert p.sup_t_slope < p.eps
    assert p.support_radius < 1e-7
    # Degenerate budgets underflow the plateau but keep the slope bound;
    # the profile is then a sharp cutoff that is still zero outside.
    tiny = make_profile(1.2, 1e-320)
    assert psi_eval(tiny, 0.0) == 1.2
    assert psi_eval(tiny, 1e-300) == 0.0
    assert tiny.sup_t_slope < 1.0


def test_rotation_plane_validation():
    plane = RotationPlane.from_basis_indices(3, 8)
    r = plane.rotation_matrix(0.7)
    assert abs(np.linalg.det(r) - 1.0) < 1e-12
    assert np.allclose(r @ r.T, np.eye(DIM), atol=1e-12)
    with pytest.raises(ValueError):
        RotationPlane(e1=np.ones(DIM), e2=np.ones(DIM))


def test_rotation_generator_is_antisymmetric():
    plane = RotationPlane.from_basis_indices(3, 8)
    gen = plane.generator
    assert np.array_equal(gen, -gen.T)
    # exp(theta * gen) == rotation_matrix(theta) on the plane.
    theta = 0.3
    r = plane.rotation_matrix(theta)
    assert abs(r[3, 3] - np.cos(theta)) < 1e-15
    assert abs(r[8, 3] - np.sin(theta)) < 1e-15


def test_local_rotation_identity_outside_support(profile):
    rot = LocalRotationMap(
        profile=profile, plane=RotationPlane.from_basis_indices(3, 8)
    )
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=DIM)
        x *= (profile.support_radius + 0.05) / np.linalg.norm(x)
        assert np.array_equal(rot.apply(x), x)
        assert np.array_equal(rot.jacobian(x), np.eye(DIM))


def test_local_rotation_preserves_radius_and_volume(profile):
    rot = LocalRotationMap(
        profile=profile, plane=RotationPlane.from_basis_indices(3, 8)
    )
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.normal(size=DIM)
        x *= rng.uniform(0, profile.support_radius) / np.linalg.norm(x)
        y = rot.apply(x)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-12
        assert abs(np.linalg.det(rot.jacobian(x)) - 1.0) < 1e-9


def _fd_check(rot, radii, seed, h=1e-7, tol=1e-6):
    rng = np.random.default_rng(seed)
    for r in radii:
        for _ in range(6):
            x = rng.normal(size=DIM)
            x *= r / np.linalg.norm(x)
            jac = rot.jacobian(x)
            fd = _fd_jacobian(rot.apply, x, h=h)
            denom = max(1.0, float(np.linalg.norm(jac)))
            assert np.linalg.norm(jac - fd) / denom < tol


def test_jacobian_matches_finite_differences(profile):
    # The construction profile: its inner seams sit at sub-float scale,
    # so differentiable probes live on the log ramp and at offsets
    # around the outer edge (clear of the finite-difference stencil).
    rot = LocalRotationMap(
        profile=profile, plane=RotationPlane.from_basis_indices(3, 8)
    )
    edge = profile.support_radius
    radii = [1e-3, 0.006, 0.4 * edge, 0.9 * edge, edge - 1e-5, edge + 1e-5, 2 * edge]
    _fd_check(rot, radii, seed=2)


def test_jacobian_matches_finite_differences_at_blend_seams():
    # A wide-budget profile keeps both C^2 blend windows at macroscopic
    # radii, so the seams themselves can be probed.
    wide = make_profile(1.1390942143376726, 1.0)
    assert wide.lo_blend and wide.hi_blend
    rot = LocalRotationMap(
        profile=wide, plane=RotationPlane.from_basis_indices(3, 8)
    )
    b, w = wide.b, wide.w
    offset = 1e-5
    radii = [
        b - w - offset,  # plateau side of the inner window
        b,  # centre of the inner window
        b + w + offset,  # ramp side of the inner window
        (b + wide.eps / 2) / 2,  # mid-ramp
        wide.eps / 2 - w - offset,  # ramp side of the outer window
        wide.eps / 2,  # centre of the outer window... still C^1 inside
        wide.support_radius + offset,  # flat outside
    ]
    _fd_check(rot, radii, seed=3)


def test_jacobian_stays_near_pointwise_rotation(profile):
    rot = LocalRotationMap(
        profile=profile, plane=RotationPlane.from_basis_indices(3, 8)
    )
    plane = rot.plane
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        x = rng.normal(size=DIM)
        x *= rng.uniform(0, profile.support_radius * 1.2) / np.linalg.norm(x)
        jac = rot.jacobian(x)
        r = float(np.linalg.norm(x))
        target = plane.rotation_matrix(float(psi_eval(profile, r)))
        worst = max(worst, float(np.linalg.norm(jac - target, 2)))
    assert worst < profile.eps


def test_deformed_map_fixed_point_and_planned_derivative(
    deformed, auto, collapse_angle, rotation_plane
):
    zero = np.zeros(DIM)
    assert np.array_equal(deformed.step(zero), zero)
    planned = rotation_plane.rotation_matrix(collapse_angle) @ np.diag(auto.diag)
    assert np.array_equal(deformed.jacobian_at(zero), planned)


def test_deformed_map_agrees_with_automorphism_far_from_support(
    deformed, auto, lattice
):
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=DIM) * 0.05
        x[0] += 0.15  # keep away from the support ball
        if np.linalg.norm(x) <= deformed.rotation.support_radius:
            continue
        stepped = deformed.step(x)
        direct = lattice.reduce(auto.apply(x))
        if np.linalg.norm(direct) > deformed.rotation.support_radius:
            assert np.array_equal(stepped, direct)


def test_step_with_jacobian_consistency(deformed):
    rng = np.random.default_rng(5)
    x = rng.normal(size=DIM) * 0.01
    nxt, jac = deformed.step_with_jacobian(x)
    assert np.array_equal(nxt, deformed.step(x))
    assert np.array_equal(jac, deformed.jacobian_at(x))


def test_step_inverse_round_trip(deformed):
    rng = np.random.default_rng(6)
    for scale in (0.005, 0.05, 0.2):
        x = rng.normal(size=DIM) * scale
        y = deformed.step(x)
        back = deformed.step_inverse(y)
        # Round trip up to a lattice translation: compare reduced points.
        red_x = deformed.lattice.reduce(x)
        assert np.max(np.abs(back - red_x)) < 1e-9


def test_jacobian_is_taken_at_the_reduced_image(deformed, auto, lattice):
    # B x = gamma . z for a lattice generator gamma and z inside the
    # support: the step reduces B x to z and rotates there, so the
    # derivative along it is Dh(z) B, not the bare automorphism.
    r = deformed.rotation.support_radius
    z = np.zeros(DIM)
    z[3], z[8] = 0.3 * r, 0.2 * r
    for j in range(DIM):
        x = auto.apply_inverse(_kernels.bch9(lattice.basis[:, j], z))
        jac = deformed.jacobian_at(x)
        assert np.array_equal(jac, deformed.step_with_jacobian(x)[1])
        assert not np.allclose(jac, np.diag(auto.diag))


def test_inverse_step_jacobian_matches_forward_step(deformed):
    rng = np.random.default_rng(8)
    r = deformed.rotation.support_radius
    inside = 0
    for scale in (0.2 * r, 0.6 * r, 2.0 * r, 0.1, 0.3):
        for _ in range(10):
            y = rng.normal(size=DIM)
            y *= scale / np.linalg.norm(y)
            inside += np.linalg.norm(y) < r
            x, jac = deformed.step_inverse_with_jacobian(y)
            assert np.array_equal(x, deformed.step_inverse(y))
            y_again, fwd = deformed.step_with_jacobian(x)
            if np.linalg.norm(y) < r:  # a reduced point: the step returns it
                assert np.max(np.abs(y_again - y)) < 1e-15
            assert np.max(np.abs(jac - fwd)) <= 1e-12 * np.max(np.abs(fwd))
    assert inside == 20


def test_support_must_fit_in_chart(auto, lattice, collapse_angle):
    profile = make_profile(collapse_angle, 0.05)
    rot = LocalRotationMap(
        profile=profile, plane=RotationPlane.from_basis_indices(3, 8)
    )
    with pytest.raises(DeformationError):
        DeformedMap(auto=auto, rotation=rot, lattice=lattice, chart_radius=0.01)


def test_expansion_constant_bounds_jacobians(deformed, auto):
    k = deformed.expansion_constant
    assert k >= max(abs(d) for d in auto.diag)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=DIM) * 0.02
        assert np.linalg.norm(deformed.jacobian_at(x), 2) <= k + 1e-9


def _oracle_rows(deformed, n=400, seed=12):
    """Reduced rows inside and outside the support, and unreduced ones."""
    rng = np.random.default_rng(seed)
    r = deformed.rotation.support_radius
    x = rng.normal(size=(n, DIM))
    x /= np.linalg.norm(x, axis=1)[:, None]
    x *= np.concatenate(
        [
            rng.uniform(0.0, r, n // 4),  # inside the support
            r * np.geomspace(1e-12, 1.0, n // 4, endpoint=False),  # deep inside
            rng.uniform(r, 0.3, n // 4),  # outside
            rng.uniform(0.3, 3.0, n - 3 * (n // 4)),  # unreduced
        ]
    )[:, None]
    x[0] = 0.0
    x[1, 3] = r  # exactly on the support radius
    x[1, 8] = 0.0
    return x


def test_batched_steps_match_scalar_steps_bit_for_bit(deformed, auto, lattice):
    x = _oracle_rows(deformed)
    p = deformed.rotation.profile.params
    e1, e2 = deformed.rotation.plane.e1, deformed.rotation.plane.e2
    r = deformed.rotation.support_radius

    def same(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    nxt, jac = deformed.step_with_jacobian(x)
    y = lattice.reduce(auto.apply(x))
    assert np.sum(np.linalg.norm(y, axis=1) < r) > 100
    assert np.sum(np.linalg.norm(y, axis=1) >= r) > 100
    for i, xi in enumerate(x):
        # The element loops, one row at a time, are the oracle.
        assert same(nxt[i], _ref_h_apply(y[i], p, e1, e2))
        assert same(jac[i], _ref_h_jacobian(y[i], p, e1, e2) * auto.diag)
        one_nxt, one_jac = deformed.step_with_jacobian(xi)
        assert same(one_nxt, nxt[i]) and same(one_jac, jac[i])
    assert same(deformed.step(x), nxt)

    # step_inverse needs reduced rows.
    y = nxt
    prev, jac = deformed.step_inverse_with_jacobian(y)
    for i, yi in enumerate(y):
        z = _ref_h_apply(yi, p, e1, e2, sign=-1.0)
        assert same(prev[i], lattice.reduce(z / auto.diag))
        assert same(jac[i], _ref_h_jacobian(z, p, e1, e2) * auto.diag)
        one_prev, one_jac = deformed.step_inverse_with_jacobian(yi)
        assert same(one_prev, prev[i]) and same(one_jac, jac[i])
    assert same(deformed.step_inverse(y), prev)
    # Outside the support the derivative is exactly diag(B).
    outside = np.array([_ref_radius(yi) >= r for yi in y])
    assert outside.sum() > 100
    assert all(same(j, np.eye(DIM) * auto.diag) for j in jac[outside])
