"""A 9-dimensional 2-step nilpotent group, its lattices and automorphisms.

The group is a product of three Heisenberg factors.  Its Lie algebra has
the ordered basis

    (X1, Y1, Z1, X2, Y2, Z2, X3, Y3, Z3)

with the only nonzero brackets ``[X_i, Y_i] = Z_i``.  Group elements are
represented in exponential (logarithmic) coordinates; because the group
is 2-step nilpotent, the group law is the exactly-truncated
Baker-Campbell-Hausdorff formula and all operations here are exact up to
floating point rounding.

The compact quotient is taken on the left: points of the manifold are
orbits ``Gamma g``, deck transformations act by left translations, and
:meth:`LatticeSpec.reduce` replaces a representative ``x`` by
``gamma^{-1} x`` for a lattice element ``gamma`` chosen greedily to
shrink the logarithmic norm.  Left-invariant vector fields descend to
the quotient, which is why Jacobians of the dynamics are expressed in
the left-invariant frame throughout: an automorphism's frame derivative
is its diagonal matrix at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _kernels
from .algebraic_core import EigenData, poly_mulmod

__all__ = [
    "DIM",
    "AutomorphismSpec",
    "LatticeSpec",
    "bracket",
    "bch_multiply",
]

DIM = 9

# Index helpers: slot s of factor i sits at 3*i + s with s in {0: x, 1: y, 2: z}.
X_SLOTS = (0, 3, 6)
Y_SLOTS = (1, 4, 7)
Z_SLOTS = (2, 5, 8)


def _as_vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (DIM,):
        raise ValueError(f"expected a vector of length {DIM}, got shape {v.shape}")
    return v


def _as_rows(x) -> np.ndarray:
    """A vector (9,) or a stack of row vectors (N, 9), as floats."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != DIM:
        raise ValueError(
            f"expected a vector of length {DIM} or an (N, {DIM}) array, "
            f"got shape {v.shape}"
        )
    return v


def bracket(u, v) -> np.ndarray:
    """Lie bracket of two algebra vectors.

    Only the central (z) slots of the result are populated:
    ``[u, v]_{z_i} = u_{x_i} v_{y_i} - u_{y_i} v_{x_i}``.
    """
    return _kernels.bracket9(_as_vec(u), _as_vec(v))


def bch_multiply(u, v) -> np.ndarray:
    """Group product in logarithmic coordinates.

    The series ``u + v + [u, v]/2`` is exact for a 2-step group: all
    higher brackets vanish identically, so this is the full group law,
    not a truncation error.
    """
    return _kernels.bch9(_as_vec(u), _as_vec(v))


# ---------------------------------------------------------------------------
# Hyperbolic automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutomorphismSpec:
    """A diagonal automorphism of the group in the fixed basis.

    The diagonal has the shape ``(d1, d1, d1^2, d2, d2, d2^2, d3, d3, d3^2)``:
    each Heisenberg factor is scaled by ``d_i`` on its x and y slots and
    by ``d_i^2`` on its central slot, which is exactly the compatibility
    required for a Lie algebra automorphism (``[X, Y] = Z`` forces the
    central multiplier to be the product of the other two).
    """

    diag: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.diag, dtype=float)
        if d.shape != (DIM,):
            raise ValueError("diagonal must have length 9")
        if np.any(d == 0):
            raise ValueError("automorphism must be invertible")
        for i in range(3):
            x, y, z = 3 * i, 3 * i + 1, 3 * i + 2
            if d[z] != d[x] * d[y]:
                raise ValueError(
                    "central multiplier must equal the product of the two "
                    f"plane multipliers in factor {i + 1}"
                )
        object.__setattr__(self, "diag", d)

    @classmethod
    def from_eigendata(cls, e: EigenData) -> "AutomorphismSpec":
        """Build the standard automorphism with factor i scaled by root i.

        The central slots are stored as the exact float products
        ``r_i * r_i`` so the automorphism compatibility holds bit for bit.
        """
        d = np.empty(DIM)
        for i, r in enumerate(e.values):
            d[3 * i] = r
            d[3 * i + 1] = r
            d[3 * i + 2] = r * r
        return cls(diag=d)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diag)

    def apply(self, x) -> np.ndarray:
        """Image of a vector, or of each row of an (N, 9) array."""
        return self.diag * _as_rows(x)

    def apply_inverse(self, x) -> np.ndarray:
        return _as_rows(x) / self.diag

    def expansion_bounds(self) -> tuple[float, float]:
        """(Smallest, largest) singular value of the automorphism."""
        a = np.abs(self.diag)
        return float(a.min()), float(a.max())


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeSpec:
    """A cocompact lattice adapted to a diagonal automorphism.

    The lattice is generated by nine vectors ``g[s, p]`` indexed by a
    slot ``s`` (x, y or z) and a power ``p`` in {0, 1, 2}: generator
    ``g[s, p]`` has coordinate ``r_i^p`` in slot ``s`` of factor ``i``,
    scaled by one half on the central slots.  Here ``r_1, r_2, r_3`` are
    the roots of the recorded monic integer cubic.

    Two structural facts make this set a genuine lattice for the
    dynamics, and both are checked numerically by
    :meth:`automorphism_integrality_residual` and
    :meth:`bch_closure_residual` (and exactly, via the polynomial ring,
    in the test suite):

    * the automorphism maps each generator to an integer combination of
      generators (powers reduce through the cubic), and
    * the group product of two generators differs from their sum by half
      a bracket, which the half-scaled central generators absorb with
      integer coefficients, so the generated group coincides with the
      integer span.
    """

    basis: np.ndarray
    poly: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=float)
        if b.shape != (DIM, DIM):
            raise ValueError("basis must be 9x9 (generators as columns)")
        object.__setattr__(self, "basis", b)
        # Gram-Schmidt data for Babai nearest-plane reduction, precomputed
        # once: gso[:, j] is column j orthogonalized against earlier
        # columns, gso_sq[j] its squared norm.
        gso = b.copy()
        for j in range(DIM):
            for k in range(j):
                gso[:, j] -= (gso[:, k] @ b[:, j]) / (gso[:, k] @ gso[:, k]) * gso[:, k]
        object.__setattr__(self, "_gso", gso)
        object.__setattr__(self, "_gso_sq", np.sum(gso * gso, axis=0))

    @classmethod
    def from_eigendata(cls, e: EigenData) -> "LatticeSpec":
        if e.poly is None:
            raise ValueError("eigen data must carry its polynomial")
        roots = np.asarray(e.values)
        basis = np.zeros((DIM, DIM))
        col = 0
        for s, slots in enumerate((X_SLOTS, Y_SLOTS, Z_SLOTS)):
            scale = 0.5 if s == 2 else 1.0
            for p in range(3):
                for i, slot in enumerate(slots):
                    basis[slot, col] = scale * roots[i] ** p
                col += 1
        return cls(basis=basis, poly=e.poly)

    # -- membership ----------------------------------------------------------

    def integer_coordinates(self, v) -> tuple[np.ndarray, float]:
        """Nearest integer generator coordinates of ``v`` and the residual.

        Returns ``(c, res)`` where ``c`` is the rounded coordinate vector
        and ``res`` is the sup-norm distance between ``v`` and the
        integer combination it denotes.  A small residual certifies
        membership up to floating point error.
        """
        c = np.linalg.solve(self.basis, _as_vec(v))
        ci = np.round(c)
        res = float(np.max(np.abs(self.basis @ ci - _as_vec(v))))
        return ci, res

    def shortest_generator_norm(self) -> float:
        return float(np.min(np.linalg.norm(self.basis, axis=0)))

    def covolume(self) -> float:
        """Volume of a fundamental domain in logarithmic coordinates.

        Group multiplication by a fixed element has unit Jacobian in
        these coordinates (the BCH correction is nilpotent shear), so
        Lebesgue measure descends to the quotient and the covolume is
        just the absolute determinant of the generator matrix.
        """
        return float(abs(np.linalg.det(self.basis)))

    # -- structural residuals --------------------------------------------------

    def automorphism_integrality_residual(self, auto: AutomorphismSpec) -> float:
        """Largest residual of mapped generators against the integer span."""
        worst = 0.0
        for j in range(DIM):
            img = auto.apply(self.basis[:, j])
            worst = max(worst, self.integer_coordinates(img)[1])
        return worst

    def bch_closure_residual(self) -> float:
        """Largest residual of pairwise generator products against the span."""
        worst = 0.0
        for i in range(DIM):
            for j in range(DIM):
                prod = bch_multiply(self.basis[:, i], self.basis[:, j])
                worst = max(worst, self.integer_coordinates(prod)[1])
        return worst

    def power_reduction(self, p: int) -> tuple[Fraction, Fraction, Fraction]:
        """Coefficients of ``t^p`` reduced modulo the recorded cubic.

        Used by exact integrality arguments: the triple ``(a0, a1, a2)``
        satisfies ``t^p = a0 + a1 t + a2 t^2`` in the quotient ring, with
        integer entries for all ``p >= 0``.
        """
        if p < 0:
            raise ValueError("power must be nonnegative")
        acc = (Fraction(1), Fraction(0), Fraction(0))
        t = (Fraction(0), Fraction(1), Fraction(0))
        for _ in range(p):
            acc = poly_mulmod(acc, t, self.poly)
        return acc

    # -- reduction -------------------------------------------------------------

    def _nearest_plane(self, v: np.ndarray) -> np.ndarray:
        """Babai nearest-plane: for each row of ``v`` (N, 9), a lattice
        vector close to it.

        Walks the precomputed Gram-Schmidt directions from last to
        first, rounding one coefficient per row at a time; a row whose
        coefficient rounds to zero takes a zero step, which leaves its
        lattice vector as it is.  Greedy: the result is a good, not
        optimal, nearest lattice point.
        """
        gso = self._gso  # type: ignore[attr-defined]
        gso_sq = self._gso_sq  # type: ignore[attr-defined]
        rem = v.copy()
        gamma = np.zeros_like(v)
        for j in range(DIM - 1, -1, -1):
            # vecdot takes one BLAS dot per row, the scalar ``gso[:, j] @ rem``.
            c = np.round(np.vecdot(rem, gso[:, j]) / gso_sq[j])
            if c.any():
                step = c[:, np.newaxis] * self.basis[:, j]
                rem -= step
                gamma += step
        return gamma

    def reduce(self, v) -> np.ndarray:
        """Greedy small representative of the left coset of ``v``.

        ``v`` is one vector (9,) or a stack of rows (N, 9), each reduced
        on its own; the result has the shape of ``v``, and row ``i`` of a
        stack is bit-identical to reducing ``v[i]`` alone.

        Picks a lattice element ``gamma`` by Babai nearest-plane and
        replaces ``v`` by ``gamma^{-1} v`` (whose logarithm is
        ``v - gamma - [gamma, v]/2``).  The bracket term moves the
        central slots, so one further correction pass is applied to the
        rows that moved.  The best candidate by Euclidean norm is kept
        per row; in particular the output norm never exceeds the input
        norm, and the map is idempotent on its fixed points.

        The representative is greedy, not canonical: inputs near the
        boundary of the fundamental domain may reduce to either side.
        """
        x = _as_rows(v)
        rows = x.reshape(-1, DIM)
        best = rows.copy()
        # vecdot takes one BLAS dot per row, as np.linalg.norm does.
        best_n = np.sqrt(np.vecdot(rows, rows))
        live = np.ones(rows.shape[0], dtype=bool)
        cur = rows
        for _ in range(2):
            gamma = self._nearest_plane(cur)
            live &= np.any(gamma != 0.0, axis=1)
            if not live.any():
                break
            cur = cur - gamma - 0.5 * _kernels.bracket9(gamma, cur)
            n = np.sqrt(np.vecdot(cur, cur))
            better = live & (n < best_n)
            best[better] = cur[better]
            best_n[better] = n[better]
        return best.reshape(x.shape)
