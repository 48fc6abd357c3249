"""The numpy kernels against the element loops they replaced.

The references below are those loops, kept as oracles.  Reports are
byte-reproducible only while the kernels match them bit for bit, so the
comparisons are exact (``np.array_equal``), not within a tolerance.
"""

import math

import numpy as np
import pytest

from nilcert import _kernels
from nilcert.deformation import LocalRotationMap, RotationPlane, make_profile
from nilcert.nilmanifold import DIM

ANGLE = 1.1390942143376726  # the default construction's collapse angle
PLANE = RotationPlane.from_basis_indices(3, 8)


def _ref_mat_mul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for t in range(a.shape[1]):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def _ref_radius(x):
    r = 0.0
    for i in range(x.shape[0]):
        r += x[i] * x[i]
    return math.sqrt(r)


def _ref_rotate_in_plane(x, e1, e2, theta):
    c1 = 0.0
    c2 = 0.0
    for i in range(x.shape[0]):
        c1 += e1[i] * x[i]
        c2 += e2[i] * x[i]
    ct = math.cos(theta)
    st = math.sin(theta)
    out = x.copy()
    for i in range(x.shape[0]):
        out[i] += (ct - 1.0) * (c1 * e1[i] + c2 * e2[i])
        out[i] += st * (c1 * e2[i] - c2 * e1[i])
    return out


def _ref_psi(t, p, slope):
    """psi (slope=False) or psi' (slope=True), one branch per piece."""
    a, eps, b, c, w = p[0], p[1], p[2], p[3], p[4]
    lo_on = p[5] > 0.5
    hi_on = p[6] > 0.5
    half = 0.5 * eps
    hi_end = half + w if hi_on else half
    flat = 0.0 if slope else a
    if t <= 0.0:
        return flat
    if t >= hi_end:
        return 0.0
    if lo_on and t < b + w:
        if t <= b - w:
            return flat
        u = (t - (b - w)) / (2.0 * w)
        args = (u, a, 0.0, 0.0, a - half * math.log(1.25), -half * 0.4, half * 0.16)
        if slope:
            return _kernels._quintic_d(*args) / (2.0 * w)
        return _kernels._quintic(*args)
    if not lo_on and t < b:
        return flat
    if hi_on and t > half - w:
        u = (t - (half - w)) / (2.0 * w)
        t0 = half - w
        y0 = -half * math.log(t0) + c
        d0 = -half * (2.0 * w) / t0
        s0 = half * (2.0 * w / t0) ** 2
        if slope:
            return _kernels._quintic_d(u, y0, d0, s0, 0.0, 0.0, 0.0) / (2.0 * w)
        return _kernels._quintic(u, y0, d0, s0, 0.0, 0.0, 0.0)
    val = -half * math.log(t) + c
    if val > a:
        return flat
    return -half / t if slope else val


def _ref_h_jacobian(x, p, e1, e2):
    n = x.shape[0]
    r = _ref_radius(x)
    theta = _ref_psi(r, p, slope=False)
    ct = math.cos(theta)
    st = math.sin(theta)
    out = np.zeros((n, n))
    for i in range(n):
        out[i, i] = 1.0
        for j in range(n):
            out[i, j] += (ct - 1.0) * (e1[i] * e1[j] + e2[i] * e2[j])
            out[i, j] += st * (e2[i] * e1[j] - e1[i] * e2[j])
    if r == 0.0:
        return out
    rslope = r * _ref_psi(r, p, slope=True)
    if rslope == 0.0:
        return out
    c1 = 0.0
    c2 = 0.0
    for i in range(n):
        c1 += e1[i] * x[i]
        c2 += e2[i] * x[i]
    rc1 = ct * c1 - st * c2
    rc2 = st * c1 + ct * c2
    inv_r = 1.0 / r
    for i in range(n):
        jrx = rc1 * e2[i] - rc2 * e1[i]
        for j in range(n):
            out[i, j] += rslope * jrx * x[j] * inv_r * inv_r
    return out


def _identical(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _points(profile, seed, count=200):
    """Points inside the support ball, out to 1.5 times its radius."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = rng.normal(size=DIM)
        yield x * rng.uniform(0.0, 1.5 * profile.support_radius) / np.linalg.norm(x)


def test_mat_mul_matches_loop():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.normal(size=(DIM, DIM))
        b = rng.normal(size=(DIM, int(rng.integers(1, DIM + 1))))
        assert _identical(_kernels.mat_mul(a, b), _ref_mat_mul(a, b))


@pytest.mark.parametrize("eps", [0.05, 1.0], ids=["default", "wide-blends"])
def test_profile_matches_loop(eps):
    profile = make_profile(ANGLE, eps)
    p = profile.params
    ts = [0.0, -1.0, profile.b, profile.support_radius]
    ts += list(np.geomspace(1e-30, 2.0 * profile.support_radius, 400))
    if profile.lo_blend:
        ts += list(np.linspace(profile.b - 2 * profile.w, profile.b + 2 * profile.w, 50))
    if profile.hi_blend:
        edge = 0.5 * profile.eps
        ts += list(np.linspace(edge - 2 * profile.w, edge + 2 * profile.w, 50))
    for t in map(float, ts):
        assert _identical(_kernels.psi_eval_params(t, p), _ref_psi(t, p, slope=False))
        assert _identical(_kernels.psi_slope_params(t, p), _ref_psi(t, p, slope=True))


@pytest.mark.parametrize("eps", [0.05, 1.0], ids=["default", "wide-blends"])
def test_rotation_kernels_match_loops_on_the_construction_plane(eps):
    profile = make_profile(ANGLE, eps)
    p, e1, e2 = profile.params, PLANE.e1, PLANE.e2
    outside = 0
    for x in _points(profile, seed=1):
        outside += np.linalg.norm(x) >= profile.support_radius
        theta = _ref_psi(_ref_radius(x), p, slope=False)  # h_apply's angle
        assert _identical(
            _kernels.rotate_in_plane(x, e1, e2, theta), _ref_rotate_in_plane(x, e1, e2, theta)
        )
        assert _identical(_kernels.h_jacobian(x, p, e1, e2), _ref_h_jacobian(x, p, e1, e2))
    assert 0 < outside < 200
    zero = np.zeros(DIM)
    assert _identical(_kernels.h_jacobian(zero, p, e1, e2), _ref_h_jacobian(zero, p, e1, e2))


def test_inverse_rotation_reads_the_angle_as_the_forward_map_does():
    # The inverse rotates back by psi at the image radius, summed in index
    # order like h_apply's radius; a differently rounded norm moves the
    # angle on the log branch.
    profile = make_profile(ANGLE, 0.05)
    p, e1, e2 = profile.params, PLANE.e1, PLANE.e2
    rot = LocalRotationMap(profile=profile, plane=PLANE)
    for y in _points(profile, seed=2, count=1000):
        theta = _ref_psi(_ref_radius(y), p, slope=False)
        expected = _ref_rotate_in_plane(y, e1, e2, -theta) if theta != 0.0 else y
        assert _identical(_kernels.h_apply_inverse(y, p, e1, e2), expected)
        assert _identical(rot.apply_inverse(y), expected)
