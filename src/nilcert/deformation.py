"""Compactly supported local rotations and the deformed dynamics.

The deformation is a radial rotation in a fixed coordinate 2-plane
(:class:`RotationPlane`, two axes of the chart): a point at distance
``r`` from the chart origin is rotated by the angle ``psi(r)``, where
``psi`` is a plateau-log-cutoff profile.  Composing this local
rotation with a hyperbolic automorphism produces the deformed map whose
partial hyperbolicity the rest of the package certifies;
:class:`DeformedMap` without a rotation is the undeformed automorphism,
stepped through the same methods.

The profile ``psi`` has three analytic pieces:

* a plateau at height ``a`` on ``[0, b]``,
* a logarithmic ramp ``-(eps/2) log t + c`` that descends from ``a`` at
  ``t = b`` to ``0`` at ``t = eps/2``, and
* zero beyond ``eps/2``,

with the two seams smoothed by C^2 quintic blends of half-width
``w = b/4``.  The ramp is the extremal profile for the constraint
``|t psi'(t)| <= eps/2``: it realizes the bound with equality, which is
what lets a rotation by a macroscopic angle ``a`` fit inside an
arbitrarily small ball at bounded Jacobian distortion.  Construction
fails loudly if the smoothed profile violates ``sup |t psi'| < eps`` on
a dense verification grid.

Numerical care: ``b = (eps/2) exp(-2a/eps)`` collapses towards (and
below) the smallest positive float already for moderate plateau
heights.  All blend endpoint data is therefore computed from the scale
ratio ``2w/(b + w) = 2/5``, which is exact by construction, rather than
from ``1/b`` style quantities that overflow; windows too narrow to
represent in floating point are dropped entirely (the seam degenerates
to a kink that still satisfies the slope bound).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .nilmanifold import DIM, AutomorphismSpec, LatticeSpec

__all__ = [
    "ProfileError",
    "DeformationError",
    "BumpProfile",
    "RotationPlane",
    "LocalRotationMap",
    "DeformedMap",
    "make_profile",
    "psi_eval",
    "psi_slope",
]

# Narrower blend windows than this cannot be trusted in float64: the
# quintic endpoint data stays finite, but there may be no representable
# points strictly inside the window.  Such windows are dropped.
_MIN_BLEND_HALF_WIDTH = 1e-300


class ProfileError(ValueError):
    """Raised when a bump profile cannot be built to specification."""


class DeformationError(ValueError):
    """Raised when a deformation does not fit its chart."""


# ---------------------------------------------------------------------------
# Bump profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpProfile:
    """A plateau-log-cutoff rotation-angle profile.

    Attributes
    ----------
    a:
        Plateau height: the rotation angle applied on a neighbourhood of
        the origin.
    eps:
        Support scale.  The profile vanishes for ``t >= eps/2 + w``, and
        the radial slope obeys ``sup |t psi'(t)| < eps``.
    b:
        End of the plateau, ``(eps/2) exp(-2a/eps)``.  May be ``0.0``
        when the exact value underflows; the plateau then survives only
        at ``t = 0``.
    c:
        Offset of the logarithmic ramp ``-(eps/2) log t + c``.
    w:
        Half-width of the C^2 blend windows, ``b/4``.
    lo_blend, hi_blend:
        Whether the inner/outer blend windows are active.  A window is
        dropped when it is too narrow to contain floating point numbers;
        the seam is then a kink, continuous with one-sided slopes that
        still satisfy the slope bound.
    sup_t_slope:
        Measured supremum of ``|t psi'(t)|`` on the verification grid.
    """

    a: float
    eps: float
    b: float
    c: float
    w: float
    lo_blend: bool
    hi_blend: bool
    sup_t_slope: float

    @property
    def support_radius(self) -> float:
        """Radius beyond which the profile is identically zero."""
        return self.eps / 2 + (self.w if self.hi_blend else 0.0)

    @property
    def params(self) -> np.ndarray:
        """Flat parameter vector consumed by the numerical kernels."""
        return np.array(
            [
                self.a,
                self.eps,
                self.b,
                self.c,
                self.w,
                1.0 if self.lo_blend else 0.0,
                1.0 if self.hi_blend else 0.0,
            ]
        )


def make_profile(a: float, eps: float, verify_points: int = 2001) -> BumpProfile:
    """Construct and verify a bump profile.

    Parameters
    ----------
    a:
        Plateau height (rotation angle at the origin); must be positive.
    eps:
        Support scale; must be positive.  No upper bound is enforced
        here; whether the support fits a chart is the deformed map's
        concern.
    verify_points:
        Number of logarithmically spaced radii in the slope
        verification scan (blend windows are additionally scanned
        linearly).

    Raises
    ------
    ProfileError
        If the inputs are not positive, or if the smoothed profile
        violates the strict slope bound ``sup |t psi'(t)| < eps`` on the
        verification grid.  The latter is a loud failure by design:
        every downstream distortion estimate leans on this bound.
    """
    if not (a > 0) or not math.isfinite(a):
        raise ProfileError(f"plateau height must be positive and finite, got {a}")
    if not (eps > 0) or not math.isfinite(eps):
        raise ProfileError(f"support scale must be positive and finite, got {eps}")

    half = 0.5 * eps
    # exp(-2a/eps) underflows to 0.0 gracefully; b == 0.0 simply means the
    # plateau is unrepresentably thin.
    b = half * math.exp(-2.0 * a / eps) if (2.0 * a / eps) < 1400.0 else 0.0
    c = half * math.log(half)
    w = 0.25 * b

    lo_blend = (
        w >= _MIN_BLEND_HALF_WIDTH
        and b - w < b < b + w
        and b + w < half - w
    )
    hi_blend = (
        w >= _MIN_BLEND_HALF_WIDTH
        and half - w < half < half + w
        and b + w < half - w
    )
    profile = BumpProfile(
        a=float(a),
        eps=float(eps),
        b=float(b),
        c=float(c),
        w=float(w),
        lo_blend=lo_blend,
        hi_blend=hi_blend,
        sup_t_slope=math.nan,
    )
    sup = _measure_sup_t_slope(profile, verify_points)
    if not (sup < eps):
        raise ProfileError(
            f"slope bound violated after smoothing: sup |t psi'| = {sup:.6e} "
            f">= eps = {eps:.6e}"
        )
    return dataclasses.replace(profile, sup_t_slope=sup)


def _measure_sup_t_slope(p: BumpProfile, n: int) -> float:
    """Supremum of |t psi'(t)| over a dense verification grid."""
    half = 0.5 * p.eps
    lo = p.b / 8 if p.b > 0 else half * 1e-12
    lo = max(lo, 5e-324 * 1e10)
    ts = [np.geomspace(lo, p.support_radius, n)]
    if p.lo_blend:
        ts.append(np.linspace(p.b - p.w, p.b + p.w, 501))
    if p.hi_blend:
        ts.append(np.linspace(half - p.w, half + p.w, 501))
    ts = np.concatenate(ts)
    return float(np.abs(ts * _kernels.psi_rows(ts, p.params)[1]).max())


def psi_eval(profile: BumpProfile, t):
    """Profile value at radius ``t`` (scalar or array)."""
    val = _kernels.psi_rows(t, profile.params)[0]
    return float(val) if np.isscalar(t) else val


def psi_slope(profile: BumpProfile, t):
    """Profile radial derivative at ``t`` (scalar or array)."""
    slope = _kernels.psi_rows(t, profile.params)[1]
    return float(slope) if np.isscalar(t) else slope


# ---------------------------------------------------------------------------
# Rotation plane and local rotation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationPlane:
    """The oriented coordinate plane of axes ``i`` and ``j`` in dimension
    ``dim``: a positive angle turns axis ``i`` towards axis ``j``."""

    i: int
    j: int
    dim: int = DIM

    def __post_init__(self) -> None:
        if not (0 <= self.i < self.dim and 0 <= self.j < self.dim) or self.i == self.j:
            raise ValueError("need two distinct basis indices in range")

    @property
    def axes(self) -> tuple[int, int]:
        return self.i, self.j

    def rotation_matrix(self, theta: float) -> np.ndarray:
        """Rotation by ``theta`` in the plane, identity on its complement.

        The in-plane entries are ``1 + (cos - 1)`` and ``0 -/+ sin``, as
        in the rotation kernels: bit for bit the sum of outer products of
        the axes' unit vectors, signed zeros included.
        """
        ct, st = math.cos(theta), math.sin(theta)
        i, j = self.axes
        out = np.eye(self.dim)
        out[i, i] = out[j, j] = 1.0 + (ct - 1.0)
        out[i, j] = 0.0 - st
        out[j, i] = 0.0 + st
        return out


@dataclass(frozen=True)
class LocalRotationMap:
    """Rotation by the profile angle about a centre: x -> R_{psi(|x - q|)}(x - q) + q."""

    profile: BumpProfile
    plane: RotationPlane
    center: np.ndarray = field(default_factory=lambda: np.zeros(DIM))

    def __post_init__(self) -> None:
        ctr = np.asarray(self.center, dtype=float)
        if ctr.shape != (DIM,):
            raise ValueError("center must be a 9-vector")
        if self.plane.dim != DIM:
            raise ValueError(f"rotation plane must live in dimension {DIM}")
        object.__setattr__(self, "center", ctr)

    @property
    def support_radius(self) -> float:
        return self.profile.support_radius

    def _inside_rows(self, x) -> tuple[tuple, np.ndarray, np.ndarray]:
        """The shape of ``x``, ``x`` relative to the centre as an (N, 9)
        stack of rows, and the mask of the rows not outside the support
        ball.  From the support radius on the profile angle is exactly 0."""
        v = np.asarray(x, dtype=float) - self.center
        rows = v.reshape(-1, DIM)
        return v.shape, rows, ~(_kernels.row_radii(rows) >= self.support_radius)

    def _rotate_inside(self, kernel, x) -> np.ndarray:
        shape, rows, inside = self._inside_rows(x)
        out = rows.copy()
        if inside.any():
            out[inside] = kernel(rows[inside], self.profile.params, self.plane.axes)
        return out.reshape(shape) + self.center

    def apply(self, x) -> np.ndarray:
        """Image of a point (9,), or of each row of an (N, 9) array."""
        return self._rotate_inside(_kernels.h_apply, x)

    def apply_inverse(self, y) -> np.ndarray:
        """Inverse: rotate back by the angle read at the image radius.

        The rotation preserves the radius only up to rounding, so the
        angle is the profile at ``|y|``, summed as :meth:`apply` sums
        ``|x|``, and the round trip is exact up to rounding.
        """
        return self._rotate_inside(_kernels.h_apply_inverse, y)

    def jacobian(self, x) -> np.ndarray:
        """Derivative at ``x``: the in-place rotation plus a rank-one radial term.

        For an (N, 9) array the result is the (N, 9, 9) stack of the
        rows' derivatives.  Outside the support ball it is exactly the
        identity, the kernel's value at angle 0.  The radial term carries
        the factor ``r psi'(r)``, bounded by the profile's slope bound, so
        the Jacobian never blows up even where ``psi'`` itself is
        enormous (tiny radii on the logarithmic ramp).  At the centre the
        derivative is exactly the rotation by the plateau angle.
        """
        shape, rows, inside = self._inside_rows(x)
        out = np.tile(np.eye(DIM), (rows.shape[0], 1, 1))
        if inside.any():
            out[inside] = _kernels.h_jacobian(rows[inside], self.profile.params, self.plane.axes)
        return out.reshape(shape[:-1] + (DIM, DIM))


# ---------------------------------------------------------------------------
# The deformed map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformedMap:
    """Composition of a hyperbolic automorphism with a local rotation.

    In the exponential chart at the fixed point the map is
    ``g(x) = h(B x)`` where ``B`` is the automorphism and ``h`` the
    local rotation.  Its derivative in the left-invariant frame is
    ``Dh(y) . B`` with ``y`` the reduced image of ``B x``, which equals
    ``B`` outside the rotation support and the rotation by the plateau
    angle times ``B`` at the fixed point.  Without a rotation ``h`` is
    the identity: ``DeformedMap(auto, lattice=lattice)`` is the
    undeformed automorphism, with derivative ``B`` everywhere.

    When a lattice is attached, :meth:`step` keeps orbit representatives
    reduced.  Chart formulas expect reduced representatives: the
    rotation support ball embeds in the quotient (its diameter is well
    below the shortest lattice displacement), so the reduced
    representative is the meaningful one.  Derivatives come only from
    :meth:`step_with_jacobian`, or from :meth:`frame_jacobian` at the
    points that :meth:`step_with_point` and :meth:`step_inverse_with_point`
    return: the same reduced points as the steps they belong to.

    Every stepping method takes one point (9,) or an (N, 9) array of
    points stepped together; each row's result is bit-identical to
    stepping that row alone.
    """

    auto: AutomorphismSpec
    rotation: Optional[LocalRotationMap] = None
    lattice: Optional[LatticeSpec] = None
    chart_radius: float = 0.3

    def __post_init__(self) -> None:
        if not (self.chart_radius > 0):
            raise DeformationError("chart radius must be positive")
        if self.rotation is not None and self.rotation.support_radius >= self.chart_radius:
            raise DeformationError(
                "support radius too large for chart: "
                f"{self.rotation.support_radius:.6g} >= {self.chart_radius:.6g}"
            )

    # -- geometric constants --------------------------------------------------

    @property
    def expansion_constant(self) -> float:
        """Worst one-step metric distortion ``K`` of the rotated dynamics.

        Rotations are isometries, so the singular values of the rotated
        map equal those of the automorphism and ``K`` is the larger of
        the top singular value and the reciprocal of the bottom one.
        """
        lo, hi = self.auto.expansion_bounds()
        return max(hi, 1.0 / lo)

    # -- quotient dynamics --------------------------------------------------------

    def jacobian_at(self, x) -> np.ndarray:
        """Frame derivative at ``x``, taken along the reduced step."""
        return self.step_with_jacobian(x)[1]

    def frame_jacobian(self, p) -> np.ndarray:
        """Frame derivative ``Dh(p) . B`` of the step whose rotation acts
        at the reduced point ``p``: the point that :meth:`step_with_point`
        and :meth:`step_inverse_with_point` return.  For an (N, 9) array
        it is the (N, 9, 9) stack; rows outside the support ball get
        exactly ``diag(B)`` without a kernel call, and without a rotation
        every row gets the automorphism's matrix.
        """
        if self.rotation is None:
            return np.tile(self.auto.matrix, np.shape(p)[:-1] + (1, 1))
        return self.rotation.jacobian(p) * self.auto.diag

    def step_with_point(self, x) -> tuple[np.ndarray, np.ndarray]:
        """One reduced step, and the reduced point its derivative is taken at.

        The automorphism image is reduced *before* the rotation is
        applied: support membership is a property of the manifold point,
        so it must be decided on the small representative.  (The
        rotation is centred at the origin and preserves the norm, so no
        second reduction is needed.)  Returns ``(h(y), y)`` with ``y``
        the reduced image of ``B x``, ``(y, y)`` without a rotation; ``x``
        may be one point (9,) or an (N, 9) array of points stepped
        together.
        """
        y = self.auto.apply(x)
        if self.lattice is not None:
            y = self.lattice.reduce(y)
        return (y if self.rotation is None else self.rotation.apply(y)), y

    def step(self, x) -> np.ndarray:
        """One step of the quotient dynamics on reduced representatives."""
        return self.step_with_point(x)[0]

    def step_with_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        """One reduced step together with the frame derivative along it.

        ``x`` is one point (9,) or (N, 9) points, giving (9, 9) or
        (N, 9, 9) derivatives.  The derivative is evaluated at the
        reduced automorphism image, matching :meth:`step`; left
        translations act trivially on the left-invariant frame, so
        reduction does not otherwise enter.  Rows whose image lies
        outside the support ball get exactly ``diag(B)``.
        """
        nxt, p = self.step_with_point(x)
        return nxt, self.frame_jacobian(p)

    def step_inverse_with_point(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Inverse step ``x = g^-1(y)``, and the point ``z`` at which the
        forward step from ``x`` takes its derivative.

        The forward step from ``x`` rotates the reduced image ``z`` that
        undoing the rotation of ``y`` recovers, so no second reduction is
        needed.  This inverts :meth:`step` only for reduced rows ``y``:
        the angle is read at ``|y|``, so an unreduced representative of a
        point inside the support undoes no rotation.  Every walk starts
        at small points and so keeps ``y`` reduced; ``y`` is not reduced
        here.
        """
        z = y if self.rotation is None else self.rotation.apply_inverse(y)
        x = self.auto.apply_inverse(z)
        if self.lattice is not None:
            x = self.lattice.reduce(x)
        return x, z

    def step_inverse(self, y) -> np.ndarray:
        """Inverse quotient step: undo the rotation, the automorphism, reduce.

        As for :meth:`step_inverse_with_point`, ``y`` must be reduced.
        """
        return self.step_inverse_with_point(y)[0]
