"""The numpy kernels against the element loops they replaced.

The references below are those loops, kept as oracles.  Reports are
byte-reproducible only while the rotation kernels match them bit for bit,
so those comparisons are exact (``np.array_equal``), not within a
tolerance.  The block-form domination margins are checked against the
9x9 per-theta search they replaced, within the few ulps of the matrix
norm that ``eigvalsh`` itself is accurate to, and against an ``mpmath``
evaluation within their own rounding bound.
"""

import math

import mpmath
import numpy as np
import pytest

from nilcert import _kernels
from nilcert.deformation import LocalRotationMap, RotationPlane, make_profile
from nilcert.nilmanifold import DIM

ANGLE = 1.1390942143376726  # the default construction's collapse angle
PLANE = RotationPlane(3, 8)


def _ref_grid_domination_margins(diag, thetas, n, tau, axes, lam_hi, tol):
    """The 9x9 search per theta: (margin, multiplier) and the norm of
    S_tgt - lam S_img at the multiplier, shape (len(thetas), 3)."""
    dim = diag.shape[0]
    out = np.zeros((thetas.shape[0], 3))
    for k, theta in enumerate(thetas):
        r = RotationPlane(*axes).rotation_matrix(float(theta))
        m = np.linalg.matrix_power(r * diag, n) * tau ** (-float(n))
        minv = np.linalg.inv(m)
        s_tgt = m.T @ m - np.eye(dim)
        s_img = np.eye(dim) - minv.T @ minv
        margin, lam = _kernels.containment_margin(s_img, s_tgt, lam_hi, tol)
        out[k] = margin, lam, np.linalg.norm(s_tgt - lam * s_img, 2)
    return out


def _combo(diag, theta, n, tau, lam):
    """S_tgt - lam S_img of the 9x9 map (R_theta D)^n / tau^n."""
    m = np.linalg.matrix_power(PLANE.rotation_matrix(theta) * diag, n) / tau**n
    minv = np.linalg.inv(m)
    return m.T @ m - np.eye(DIM) - lam * (np.eye(DIM) - minv.T @ minv)


def _ref_radius(x):
    r = 0.0
    for i in range(x.shape[0]):
        r += x[i] * x[i]
    return math.sqrt(r)


def _basis(axes):
    """The oracles' form of a plane: the unit vectors of its two axes."""
    return np.eye(DIM)[axes[0]], np.eye(DIM)[axes[1]]


def _ref_rotation_matrix(axes, theta):
    """Rotation by theta in the plane of axes, as a sum of outer products
    of the axes' unit vectors."""
    e1, e2 = _basis(axes)
    ct, st = math.cos(theta), math.sin(theta)
    out = np.eye(DIM)
    out += (ct - 1.0) * (np.outer(e1, e1) + np.outer(e2, e2))
    out += st * (np.outer(e2, e1) - np.outer(e1, e2))
    return out


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


def _ref_h_apply(x, p, e1, e2, sign=1.0):
    """Rotation of x by sign * psi(|x|); a copy where the angle is 0."""
    theta = _ref_psi(_ref_radius(x), p, slope=False)
    return _ref_rotate_in_plane(x, e1, e2, sign * theta) if theta != 0.0 else x.copy()


def _identical(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _points(profile, seed, count=200):
    """Points inside the support ball, out to 1.5 times its radius, as
    one (count, 9) stack."""
    rng = np.random.default_rng(seed)
    x = np.empty((count, DIM))
    for k in range(count):
        d = rng.normal(size=DIM)
        x[k] = d * rng.uniform(0.0, 1.5 * profile.support_radius) / np.linalg.norm(d)
    return x


@pytest.mark.parametrize("eps", [0.05, 1.0], ids=["default", "wide-blends"])
def test_profile_matches_loop(eps):
    profile = make_profile(ANGLE, eps)
    p = profile.params
    ts = [0.0, -0.0, -1.0, profile.b, profile.support_radius]
    ts += list(np.geomspace(1e-30, 2.0 * profile.support_radius, 400))
    if profile.lo_blend:
        ts += list(np.linspace(profile.b - 2 * profile.w, profile.b + 2 * profile.w, 50))
    if profile.hi_blend:
        edge = 0.5 * profile.eps
        ts += list(np.linspace(edge - 2 * profile.w, edge + 2 * profile.w, 50))
    # Dense radii: np.log differs from math.log in the last bit on a few of
    # these (4 on the default profile, 8 with wide blends).
    ts += list(np.random.default_rng(3).uniform(profile.b, profile.support_radius, 20_000))
    val, slope = _kernels.psi_rows(np.array(ts), p)
    assert _identical(val, [_ref_psi(t, p, slope=False) for t in map(float, ts)])
    assert _identical(slope, [_ref_psi(t, p, slope=True) for t in map(float, ts)])


def _check_rotation_kernels(profile, axes):
    p, (e1, e2) = profile.params, _basis(axes)
    # The origin, and a row outside the support whose -0.0 entries an
    # update by angle 0 would turn into +0.0.
    far = np.full((1, DIM), -0.0)
    far[0, 0] = 2.0 * profile.support_radius
    x = np.concatenate([_points(profile, seed=1), np.zeros((1, DIM)), far])
    outside = np.sum(np.linalg.norm(x, axis=1) >= profile.support_radius)
    assert 0 < outside < 200
    image = _kernels.h_apply(x, p, axes)
    jac = _kernels.h_jacobian(x, p, axes)
    for k, xk in enumerate(x):
        assert _identical(image[k], _ref_h_apply(xk, p, e1, e2))
        assert _identical(jac[k], _ref_h_jacobian(xk, p, e1, e2))


def _check_inverse_rotation(profile, plane):
    p, (e1, e2) = profile.params, _basis(plane.axes)
    rot = LocalRotationMap(profile=profile, plane=plane)
    y = _points(profile, seed=2, count=1000)
    back = _kernels.h_apply_inverse(y, p, plane.axes)
    back_map = rot.apply_inverse(y)
    for k, yk in enumerate(y):
        expected = _ref_h_apply(yk, p, e1, e2, sign=-1.0)
        assert _identical(back[k], expected)
        assert _identical(back_map[k], expected)


@pytest.mark.parametrize("eps", [0.05, 1.0], ids=["default", "wide-blends"])
def test_rotation_kernels_match_loops_on_the_construction_plane(eps):
    _check_rotation_kernels(make_profile(ANGLE, eps), PLANE.axes)


def test_inverse_rotation_reads_the_angle_as_the_forward_map_does():
    # The inverse rotates back by psi at the image radius, summed in index
    # order like h_apply's radius; a differently rounded norm moves the
    # angle on the log branch.
    _check_inverse_rotation(make_profile(ANGLE, 0.05), PLANE)


@pytest.mark.parametrize("axes", [(0, 4), (8, 3)], ids=["second-plane", "reversed-plane"])
def test_rotation_kernels_match_loops_on_other_planes(axes):
    # The reversed plane turns axis 8 towards axis 3: the kernels must take
    # the orientation from the order of the axes.
    profile = make_profile(ANGLE, 0.05)
    _check_rotation_kernels(profile, axes)
    _check_inverse_rotation(profile, RotationPlane(*axes))


def test_rotation_copies_the_other_columns_bit_for_bit():
    # Off the plane the rotation is the identity, so those columns are
    # copied, -0.0 included; the basis-vector loop adds a signed zero there
    # and can turn -0.0 into +0.0.  The plane's two columns match the loop.
    profile = make_profile(ANGLE, 0.05)
    p, axes = profile.params, PLANE.axes
    x = _points(profile, seed=4)
    others = [k for k in range(DIM) if k not in axes]
    x[::2, others[::2]] = -0.0
    x[1::2, others[1::2]] = 0.0
    e1, e2 = _basis(axes)
    for kernel, sign in ((_kernels.h_apply, 1.0), (_kernels.h_apply_inverse, -1.0)):
        out = kernel(x, p, axes)
        assert _identical(out[:, others], x[:, others])
        for k, xk in enumerate(x):
            assert _identical(out[k, list(axes)], _ref_h_apply(xk, p, e1, e2, sign)[list(axes)])


@pytest.mark.parametrize("axes", [(3, 8), (8, 3), (0, 4)])
@pytest.mark.parametrize("theta", [0.0, 1e-300, -0.7, math.pi / 2, math.pi])
def test_rotation_matrix_matches_outer_products(axes, theta):
    r = RotationPlane(*axes).rotation_matrix(theta)
    assert _identical(r, _ref_rotation_matrix(axes, theta))


@pytest.mark.parametrize("n", [1, 2])
def test_block_margins_match_the_9x9_search(auto, annuli, collapse_angle, n):
    diag = np.asarray(auto.diag, dtype=float)
    thetas = np.linspace(0.0, collapse_angle, 128)
    for ann in annuli:
        args = (diag, thetas, n, ann.beta_q, PLANE.axes, 8.0, 1e-12)
        block = _kernels.grid_domination_margins(*args)
        ref = _ref_grid_domination_margins(*args)
        tol = 8.0 * np.finfo(float).eps * ref[:, 2]
        assert np.all(np.abs(block[:, 0] - ref[:, 0]) <= tol)
        # eigvalsh at the block-form multiplier, as perfbench's check does.
        for theta, (margin, lam, _) in zip(thetas, block):
            combo = _combo(diag, float(theta), n, ann.beta_q, lam)
            recheck = np.linalg.eigvalsh(combo)[0]
            assert abs(recheck - margin) <= 8.0 * np.finfo(float).eps * np.linalg.norm(combo, 2)


def _exact_margin(diag, theta, n, tau, lam):
    """min-eig(S_tgt - lam S_img) of the 9x9 map, in 60-digit arithmetic,
    from the same float inputs."""
    with mpmath.workdps(60):
        i, j = 3, 8
        r = mpmath.eye(DIM)
        r[i, i] = r[j, j] = mpmath.cos(mpmath.mpf(theta))
        r[j, i] = mpmath.sin(mpmath.mpf(theta))
        r[i, j] = -r[j, i]
        m = (r * mpmath.diag([mpmath.mpf(d) for d in diag])) ** n / mpmath.mpf(tau) ** n
        minv = m**-1
        eye = mpmath.eye(DIM)
        combo = m.T * m - eye - mpmath.mpf(lam) * (eye - minv.T * minv)
        return min(mpmath.eigsy(combo, eigvals_only=True))


@pytest.mark.parametrize("n", [1, 2])
def test_block_margins_lie_within_their_rounding_bound(auto, annuli, collapse_angle, n):
    diag = np.asarray(auto.diag, dtype=float)
    thetas = np.array([0.0, 0.3, collapse_angle])
    for ann in annuli:
        res = _kernels.grid_domination_margins(
            diag, thetas, n, ann.beta_q, PLANE.axes, 8.0, 1e-12
        )
        for theta, (margin, lam, bound) in zip(thetas, res):
            assert 0.0 < bound < 1e-4 * max(1.0, abs(margin))
            exact = _exact_margin(diag, float(theta), n, ann.beta_q, lam)
            assert abs(mpmath.mpf(margin) - exact) <= bound


def test_rump_criterion_proves_only_clear_positive_definiteness():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(DIM, DIM)))

    def with_spectrum(low):
        spectrum = np.geomspace(1.0, 1e9, DIM)
        spectrum[0] = low
        a = (q * spectrum) @ q.T
        return 0.5 * (a + a.T)

    stack = np.stack([with_spectrum(1.0), with_spectrum(1e-3), with_spectrum(-1e-3)])
    # tr(A) is about 1.1e9, so the shift is near 2.5e-6: 1e-3 clears it.
    assert _kernels.rump_positive_definite(stack).tolist() == [True, True, False]
    # Positive definite, but inside the rounding of a matrix of norm 1e9.
    assert not _kernels.rump_positive_definite(with_spectrum(1e-9)[None])[0]
