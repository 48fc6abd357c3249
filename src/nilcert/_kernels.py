"""Numerical kernels, in plain numpy on ``float64`` arrays: the Lie
bracket, the bump profile, the local rotation and its Jacobian,
S-procedure cone margins in block form, a rigorous positive-definiteness
test and QR frame transport.  Structured inputs (profiles, planes) arrive
flattened by their owning modules.

The profile kernel takes an array of radii and the rotation kernels an
(N, d) stack of rows; each radius or row gets the value the element
loops kept as oracles in ``tests/test_kernels.py`` give it alone, bit for
bit.  The rotation kernels take in-plane coordinates as one
``np.vecdot`` per row, which is exact when ``e1`` and ``e2`` are
coordinate vectors.  Those are the only planes the pipeline rotates in:
its planner stage passes only single-step plans, and every single-step
plan turns a coordinate plane.  The domination kernels require one
(:func:`plane_axes`).

Products are plain ``@``.  On stacks, ``(N, d, d) @ (N, d, k)`` runs the
same routine per matrix as a single ``@``, so the QR transport kernels
carry (N, d, k) frame stacks, one orbit per frame, and each frame matches
its own transport bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def bracket9(u, v):
    """Lie bracket on the 9-dimensional algebra, slotwise per factor.

    Coordinates are ordered (x1, y1, z1, x2, y2, z2, x3, y3, z3); the only
    nonzero brackets are [X_i, Y_i] = Z_i, so the result has entries only
    in the z slots.  Rows of (N, 9) arrays are bracketed pairwise.
    """
    out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    out[..., 2::3] = u[..., 0::3] * v[..., 1::3] - u[..., 1::3] * v[..., 0::3]
    return out


def bch9(u, v):
    """Group product in logarithmic coordinates: u * v on a 2-step group.

    For a nilpotent group of step two the Baker-Campbell-Hausdorff series
    terminates exactly: log(exp u exp v) = u + v + [u, v]/2.
    """
    return u + v + 0.5 * bracket9(u, v)


# The radial bump profile.  ``p`` is ``deformation.BumpProfile.params``:
# (a, eps, b, c, w, lo_blend, hi_blend), the flags as 1.0 / 0.0.


def _quintic(u, y0, d0, s0, y1, d1, s1):
    """C^2 two-point Hermite quintic on u in [0, 1].

    y*, d*, s* are the endpoint values, first and second derivatives in
    the scaled coordinate u.
    """
    u2 = u * u
    u3 = u2 * u
    u4 = u3 * u
    u5 = u4 * u
    h00 = 1.0 - 10.0 * u3 + 15.0 * u4 - 6.0 * u5
    h10 = u - 6.0 * u3 + 8.0 * u4 - 3.0 * u5
    h20 = 0.5 * u2 - 1.5 * u3 + 1.5 * u4 - 0.5 * u5
    h01 = 10.0 * u3 - 15.0 * u4 + 6.0 * u5
    h11 = -4.0 * u3 + 7.0 * u4 - 3.0 * u5
    h21 = 0.5 * u3 - u4 + 0.5 * u5
    return y0 * h00 + d0 * h10 + s0 * h20 + y1 * h01 + d1 * h11 + s1 * h21


def _quintic_d(u, y0, d0, s0, y1, d1, s1):
    """Derivative in u of :func:`_quintic`."""
    u2 = u * u
    u3 = u2 * u
    u4 = u3 * u
    h00 = -30.0 * u2 + 60.0 * u3 - 30.0 * u4
    h10 = 1.0 - 18.0 * u2 + 32.0 * u3 - 15.0 * u4
    h20 = u - 4.5 * u2 + 6.0 * u3 - 2.5 * u4
    h01 = 30.0 * u2 - 60.0 * u3 + 30.0 * u4
    h11 = -12.0 * u2 + 28.0 * u3 - 15.0 * u4
    h21 = 1.5 * u2 - 4.0 * u3 + 2.5 * u4
    return y0 * h00 + d0 * h10 + s0 * h20 + y1 * h01 + d1 * h11 + s1 * h21


def psi_rows(t, p):
    """The profile psi and its radial slope psi' at every radius of t:
    two arrays of t's shape.

    Each radius takes the first piece that holds it: the plateau value a
    for t <= 0, zero from the support radius on, the inner blend window
    (the plateau before it), the outer blend window, and the log branch
    ``-(eps/2) log t + c``, clamped to the plateau where it exceeds a.
    Each piece's formula runs only on its own radii, so no log or
    division is taken outside its piece.  The log branch takes
    ``math.log`` per radius: ``np.log`` differs from it in the last bit
    on some arguments, which moves reports.
    """
    a, eps, b, c, w = p[:5]
    half = 0.5 * eps
    shape = np.shape(t)
    t = np.asarray(t, dtype=float).reshape(-1)
    val = np.full(t.shape, a)
    slope = np.zeros(t.shape)
    rest = ~(t <= 0.0)
    zero = rest & (t >= (half + w if p[6] > 0.5 else half))
    val[zero] = 0.0
    rest &= ~zero
    blends = []  # (radii, window start, the quintic's endpoint data)
    if p[5] > 0.5:
        # Inner blend: scaled endpoint data, independent of the size of b.
        window = rest & (t < b + w)
        rest &= ~window
        y1 = a - half * math.log(1.25)  # value of the log branch at b + w
        d1 = -half * 0.4  # slope * (2w): -(eps/2) * 2w/(b+w) = -(eps/2)*(2/5)
        s1 = half * 0.16  # curvature * (2w)^2: (eps/2) * (2/5)^2
        blends.append((window & ~(t <= b - w), b - w, (a, 0.0, 0.0, y1, d1, s1)))
    else:
        rest &= ~(t < b)
    if p[6] > 0.5:
        window = rest & (t > half - w)
        rest &= ~window
        t0 = half - w
        y0 = -half * math.log(t0) + c
        d0 = -half * (2.0 * w) / t0
        s0 = half * (2.0 * w / t0) ** 2
        blends.append((window, t0, (y0, d0, s0, 0.0, 0.0, 0.0)))
    for window, start, ends in blends:
        if window.any():
            u = (t[window] - start) / (2.0 * w)
            val[window] = _quintic(u, *ends)
            slope[window] = _quintic_d(u, *ends) / (2.0 * w)
    if rest.any():
        ramp = -half * np.array([math.log(v) for v in t[rest].tolist()]) + c
        clamped = ramp > a
        ramp[clamped] = a
        val[rest] = ramp
        rest[rest] = ~clamped
        slope[rest] = -half / t[rest]
    return val.reshape(shape), slope.reshape(shape)


def row_radii(x):
    """The Euclidean norm of every row of x (N, d), its squares summed
    column by column, in index order."""
    s = np.zeros(x.shape[0])
    for k in range(x.shape[1]):
        s += x[:, k] * x[:, k]
    return np.sqrt(s)


def _rotate(x, theta, e1, e2):
    """Rotate each row of x (N, d) by its angle theta (N,) in the oriented
    plane spanned by the orthonormal pair (e1, e2), fixing the complement
    pointwise.  Rows whose angle is exactly 0 are copied unchanged."""
    c1 = np.vecdot(x, e1)[:, None]
    c2 = np.vecdot(x, e2)[:, None]
    out = x + (np.cos(theta)[:, None] - 1.0) * (c1 * e1 + c2 * e2)
    out += np.sin(theta)[:, None] * (c1 * e2 - c2 * e1)
    still = theta == 0.0
    out[still] = x[still]
    return out


def h_apply(x, p, e1, e2):
    """Local rotation by the profile angle: rotate each row x[i] of x
    (N, d) by psi(|x[i]|)."""
    return _rotate(x, psi_rows(row_radii(x), p)[0], e1, e2)


def h_apply_inverse(y, p, e1, e2):
    """Inverse of :func:`h_apply`: rotate each row y[i] back by psi(|y[i]|).

    The angle is read at the image radius, summed in the same order as
    :func:`h_apply` sums the radius of its argument.
    """
    return _rotate(y, -psi_rows(row_radii(y), p)[0], e1, e2)


def h_jacobian(x, p, e1, e2):
    """Jacobians of :func:`h_apply` at the rows of x (N, d): an (N, d, d)
    stack.

    Writing R for the rotation by psi(r) and J for its angular generator
    restricted to the plane, the derivative is R + (r psi'(r)) (J R xhat)
    outer xhat.  The radial slope enters only through the bounded product
    r * psi'(r), so the formula stays finite arbitrarily close to the
    origin and across the log branch.  Rows where that product is 0 (the
    origin among them) get R alone.
    """
    r = row_radii(x)
    theta, slope = psi_rows(r, p)
    ct = np.cos(theta)[:, None]
    st = np.sin(theta)[:, None]
    out = np.eye(x.shape[1]) + (ct - 1.0)[:, :, None] * (np.outer(e1, e1) + np.outer(e2, e2))
    out += st[:, :, None] * (np.outer(e2, e1) - np.outer(e1, e2))
    rslope = r * slope
    bent = (r != 0.0) & (rslope != 0.0)
    if bent.any():
        xb, ct, st = x[bent], ct[bent], st[bent]
        # J R x with J = e2 e1^T - e1 e2^T, from the rotated plane coordinates of x.
        c1 = np.vecdot(xb, e1)[:, None]
        c2 = np.vecdot(xb, e2)[:, None]
        jrx = (ct * c1 - st * c2) * e2 - (st * c1 + ct * c2) * e1
        inv_r = (1.0 / r[bent])[:, None, None]
        out[bent] += (rslope[bent, None] * jrx)[:, :, None] * xb[:, None, :] * inv_r * inv_r
    return out


def containment_margin(s_img, s_tgt, lam_hi, tol):
    """Best S-procedure margin: max over lam >= 0 of min-eig(S_tgt - lam S_img).

    The objective is concave in lam (a pointwise minimum of affine
    functions), so golden-section search over [0, lam_hi] converges to
    the global maximum.  Returns (margin, lam_star).
    """

    def f(lam):
        return np.linalg.eigvalsh(s_tgt - lam * s_img)[0]

    a, b = 0.0, lam_hi
    fa, fb = f(a), f(b)
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    # Ties go to the earlier candidate.
    return max((f1, x1), (f2, x2), (fa, 0.0), (fb, lam_hi), key=lambda c: c[0])


def plane_axes(e1, e2):
    """The axes (i, j) of a coordinate plane, whose basis e1, e2 are the
    standard basis vectors of axes i and j.  Raises ValueError for any
    other plane."""
    i, j = int(np.argmax(e1)), int(np.argmax(e2))
    eye = np.eye(e1.shape[0])
    if not (np.array_equal(e1, eye[i]) and np.array_equal(e2, eye[j])):
        raise ValueError(
            "block-form domination needs a coordinate plane: e1 and e2 "
            "must be standard basis vectors"
        )
    return i, j


def rotated_blocks(diag, thetas, n, tau, e1, e2):
    """The threshold-normalized n-step maps M = (R_theta D)^n / tau^n in
    block form, for D = diag(diag) and R_theta turning the coordinate
    plane (e1, e2) of axes (i, j).

    M fixes every other axis, so it is a scalar ``(d_k / tau)^n`` on each
    of them and one 2x2 block on (i, j).  Returns ``(scalars, blocks)``:
    scalars (2, dim - 2) holds the diagonal of M, then of M^-1, off the
    plane; blocks (4, len(thetas), 2, 2) holds the in-plane block of M,
    of M^-1 = (D^-1 R_-theta)^n tau^n, and then the entrywise magnitudes
    |R_theta D|^n / tau^n and |D^-1 R_-theta|^n tau^n that bound their
    rounding.
    """
    i, j = plane_axes(e1, e2)
    inv_tau_n = tau ** (-float(n))
    tau_n = tau ** float(n)
    off = np.delete(diag, [i, j])
    scalars = np.stack([off**n * inv_tau_n, (1.0 / off) ** n * tau_n])
    c, s = np.cos(thetas), np.sin(thetas)
    di, dj = diag[i], diag[j]
    steps = np.empty((4, thetas.shape[0], 2, 2))
    steps[0] = np.stack([c * di, -s * dj, s * di, c * dj], -1).reshape(-1, 2, 2)
    steps[1] = np.stack([c / di, s / di, -s / dj, c / dj], -1).reshape(-1, 2, 2)
    steps[2:] = np.abs(steps[:2])
    scale = np.array([inv_tau_n, tau_n, inv_tau_n, tau_n])[:, None, None, None]
    return scalars, np.linalg.matrix_power(steps, n) * scale


def block_margins(scalars, blocks, n, lam_hi, tol):
    """S-procedure margins of the block-form maps of :func:`rotated_blocks`.

    With S_tgt = M^T M - I and S_img = I - M^-T M^-1, the margin is the
    maximum over lam in [0, lam_hi] of min-eig(S_tgt - lam S_img).  In
    block form that is the minimum of concave functions of lam: the affine
    ``(m^2 - 1) - lam (1 - m^-2)`` per scalar m, and the smaller eigenvalue
    of the 2x2 block [[p, q], [q, r]], taken as
    ``min(p, r) - q^2 / (h + hypot(h, q))`` with ``h = |p - r| / 2``,
    which is ``(p + r)/2 - hypot(h, q)`` without its cancellation (and
    exactly the smaller diagonal entry when q = 0).  One golden-section
    search runs on all blocks at once, for the fixed number of steps that
    brackets each maximizer to within ``tol``; ties go to the earlier
    candidate.

    Returns (margin, lam_star, bound) per block, shape (len(thetas), 3).
    ``bound`` is the margin's rounding bound, ``(5 n + 8) eps`` times the
    largest magnitude that enters a piece at lam_star (the entries of the
    magnitude blocks' Gram matrices, the scalars' squares, one), rounded
    up with ``nextafter``: n matrix products and a few more operations,
    each within ``eps`` of the magnitudes it combines.
    """
    m, minv = scalars
    st, si = m * m - 1.0, 1.0 - minv * minv
    gram = np.swapaxes(blocks, -1, -2) @ blocks
    g, h = gram[0], gram[1]
    pt, qt, rt = g[:, 0, 0] - 1.0, g[:, 0, 1], g[:, 1, 1] - 1.0
    pi, qi, ri = 1.0 - h[:, 0, 0], -h[:, 0, 1], 1.0 - h[:, 1, 1]

    def f(lam):
        p, q, r = pt - lam * pi, qt - lam * qi, rt - lam * ri
        half = 0.5 * np.abs(p - r)
        rad = half + np.hypot(half, q)
        lo = np.minimum(p, r) - np.divide(q * q, rad, out=np.zeros_like(q), where=rad > 0.0)
        return np.minimum(lo, (st - lam[:, None] * si).min(axis=1))

    size = blocks.shape[1]
    a, b = np.zeros(size), np.full(size, float(lam_hi))
    fa, fb = f(a), f(b)
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max(0, math.ceil(math.log(tol / lam_hi) / math.log(_INVPHI)))):
        up = f1 < f2
        a, b = np.where(up, x1, a), np.where(up, b, x2)
        x = np.where(up, a + _INVPHI * (b - a), b - _INVPHI * (b - a))
        fx = f(x)
        x1, f1, x2, f2 = (
            np.where(up, x2, x), np.where(up, f2, fx), np.where(up, x, x1), np.where(up, fx, f1)
        )
    cand = np.stack([f1, f2, fa, fb])
    pick = np.argmax(cand, axis=0)[None]
    margin = np.take_along_axis(cand, pick, 0)[0]
    ends = np.broadcast_to([[0.0], [float(lam_hi)]], (2, size))
    lam = np.take_along_axis(np.concatenate([[x1, x2], ends]), pick, 0)[0]

    mag = gram[2:].max(axis=(-2, -1)) + 1.0
    scale = np.maximum(
        mag[0] + lam * mag[1], (m * m + 1.0 + lam[:, None] * (1.0 + minv * minv)).max(axis=1)
    )
    bound = np.nextafter((5 * n + 8) * np.finfo(float).eps * scale, np.inf)
    return np.stack([margin, lam, bound], 1)


def block_norms(scalars, blocks):
    """Spectral norms of M and M^-1 for the block-form maps of
    :func:`rotated_blocks`, shape (len(thetas), 2): the larger of the
    largest scalar and the 2x2 block's largest singular value,
    ``(hypot(a + d, c - b) + hypot(a - d, b + c)) / 2`` for [[a, b], [c, d]]."""
    a, b = blocks[:2, :, 0, 0], blocks[:2, :, 0, 1]
    c, d = blocks[:2, :, 1, 0], blocks[:2, :, 1, 1]
    sigma = 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
    return np.maximum(sigma, np.abs(scalars).max(axis=1)[:, None]).T


def grid_domination_margins(diag, thetas, n, tau, e1, e2, lam_hi, tol):
    """Containment margins of the n-step rotated maps over a theta grid.

    For each theta, the threshold-normalized n-step map
    M = (R_theta D)^n / tau^n with D = diag(diag) has the expansion cone
    S = M^T M - I and its image cone S' = I - M^-T M^-1; the S-procedure
    margin certifies that the map sends the cone strictly inside itself.
    Normalizing by the threshold keeps the margins and the maximizing
    multipliers on a common scale across exponents and thresholds.  The
    plane (e1, e2) must be a coordinate plane; the margins are taken in
    block form (:func:`rotated_blocks`, :func:`block_margins`).  Returns
    (margin, multiplier, rounding bound) per theta, as an array of shape
    (len(thetas), 3).
    """
    return block_margins(*rotated_blocks(diag, thetas, n, tau, e1, e2), n, lam_hi, tol)


def rump_positive_definite(a):
    """Prove, in floating point, which symmetric matrices of the stack a
    (N, d, d) are positive definite.

    Rump's criterion (S. M. Rump, "Verification of positive
    definiteness", BIT Numerical Mathematics 46 (2006), 433-452): a
    symmetric floating-point matrix A with nonnegative diagonal is
    positive definite if the floating-point Cholesky factorization of
    A - c I runs to completion for

        c = gamma_{d+1} / (1 - gamma_{d+1}) trace(A),
        gamma_k = k u / (1 - k u),

    with u the unit roundoff, barring underflow.  Here u is taken as
    ``eps = 2^-52``, twice the unit roundoff, which covers the rounding
    of the trace and of forming A - c I; underflow is allowed for by
    adding ``4 (d + 1) (2 (d + 2) + max_i a_ii) eta``, eta the smallest
    positive subnormal, and c is rounded up.  Both factorization and
    criterion read the lower triangle.
    Returns a bool per matrix; False means not proven (the factorization
    failed, or a diagonal entry is not positive).
    """
    d = a.shape[-1]
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    gamma = (d + 1) * np.finfo(float).eps
    gamma /= 1.0 - gamma
    eta = np.finfo(float).smallest_subnormal
    shift = gamma / (1.0 - gamma) * diag.sum(axis=-1)
    shift += 4 * (d + 1) * (2 * (d + 2) + diag.max(axis=-1)) * eta
    shifted = a - np.nextafter(shift, np.inf)[:, None, None] * np.eye(d)
    try:
        np.linalg.cholesky(shifted)
        runs = np.ones(a.shape[0], dtype=bool)
    except np.linalg.LinAlgError:  # some matrix failed: find which
        runs = np.array([_cholesky_runs(m) for m in shifted], dtype=bool)
    return runs & (diag > 0.0).all(axis=-1)


def _cholesky_runs(m):
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _qr_pos(a):
    """QR with the sign convention diag(R) >= 0, for reproducibility.

    Stacks of frames (N, d, k) are factored matrix by matrix; each factor
    is bit-identical to that of the matrix alone.
    """
    q, r = np.linalg.qr(a)
    return q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]


def _seed_frames(points, q0):
    # One copy of the seed frame per walked point: shape (N, d, k), or (d, k)
    # for a walk of single points.
    return np.broadcast_to(q0, points.shape[1:-1] + q0.shape[-2:]).copy()


def qr_product_forward(points, jacobian, q0):
    """Push frames through a Jacobian sequence, re-orthonormalizing.

    points has shape (steps, N, d): the points at which the walk's
    Jacobians are taken, in the order they are applied, for N orbits
    walked together ((steps, d) for one orbit).  jacobian maps one (N, d)
    slice to its (N, d, d) stack; it is called once per step, so the
    (steps, N, d, d) sequence is never held.  Each seed frame q0 (d, k)
    (or one per orbit, (N, d, k)) is mapped through the first Jacobian,
    then the second, ..., with a thin QR after every step.  The spans
    converge to the dominant k-dimensional subspaces of the products.
    """
    q = _seed_frames(points, q0)
    for p in points:
        q = _qr_pos(jacobian(p) @ q)
    return q


def qr_product_pullback(points, jacobian, q0):
    """Pull frames back through a Jacobian sequence, re-orthonormalizing.

    Takes points, jacobian and q0 as :func:`qr_product_forward` does and
    applies the inverses of the Jacobians at points[steps-1], ...,
    points[0], with a stacked solve and a thin QR after every step.  The
    spans converge to the dominant subspaces of the inverse products,
    i.e. the most contracted directions of the forward products.
    """
    q = _seed_frames(points, q0)
    for p in points[::-1]:
        q = _qr_pos(np.linalg.solve(jacobian(p), q))
    return q
