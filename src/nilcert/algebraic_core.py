"""Exact arithmetic for small integer matrices and their real eigenvalues.

This module is the arithmetic backbone of the package.  It computes
characteristic polynomials of 3x3 integer matrices exactly, certifies
that such a polynomial has three simple real roots, isolates those roots
in arbitrarily tight rational intervals by bisection, and evaluates
quadratic integer expressions at the roots with certified enclosures.

Everything on the certification path uses :class:`fractions.Fraction`
end to end, so each interval produced here is a mathematically rigorous
enclosure rather than a floating-point estimate.  Floating-point views
of enclosures are always rounded outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

__all__ = [
    "IntegerMatrixSpec",
    "Interval",
    "EigenData",
    "ChainReport",
    "RootIsolationError",
    "char_poly",
    "check_irreducible",
    "isolate_real_roots",
    "verify_eigenvalue_condition",
    "conjugate_eval",
    "poly_mulmod",
]

# Names of the five order relations certified by verify_eigenvalue_condition,
# in the order their states are reported.
CHAIN_RELATIONS = (
    "0 < r2^2",
    "r2^2 < r1",
    "r1 < r2",
    "r2 < 1",
    "1 < r3",
)


class RootIsolationError(ValueError):
    """Raised when a polynomial does not have three simple real roots."""


# ---------------------------------------------------------------------------
# Rational interval arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed rational interval ``[lo, hi]`` with exact endpoints.

    Supports just enough arithmetic for evaluating polynomials with
    rational coefficients over enclosed arguments.  All operations are
    exact; no rounding occurs until :meth:`to_floats` is called.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    # -- queries ------------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction | int) -> bool:
        return self.lo <= x <= self.hi

    def to_floats(self) -> tuple[float, float]:
        """Outward-rounded floating point endpoints.

        The returned pair ``(lo, hi)`` satisfies ``lo <= self.lo`` and
        ``hi >= self.hi`` as extended reals, so float consumers inherit
        a valid (slightly wider) enclosure.
        """
        lo = float(self.lo)
        hi = float(self.hi)
        if Fraction(lo) > self.lo:
            lo = math.nextafter(lo, -math.inf)
        if Fraction(hi) < self.hi:
            hi = math.nextafter(hi, math.inf)
        return lo, hi

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def scale(self, c: Fraction | int) -> "Interval":
        c = Fraction(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def shift(self, c: Fraction | int) -> "Interval":
        c = Fraction(c)
        return Interval(self.lo + c, self.hi + c)

    @staticmethod
    def point(x: Fraction | int | float) -> "Interval":
        x = Fraction(x)
        return Interval(x, x)


# ---------------------------------------------------------------------------
# Integer matrix specification
# ---------------------------------------------------------------------------


def _det3(m: Sequence[Sequence[int]]) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@dataclass(frozen=True)
class IntegerMatrixSpec:
    """A 3x3 integer matrix with determinant of absolute value one.

    The entries are stored as a tuple of tuples so instances are
    hashable and immutable.  Unimodularity is enforced at construction
    time because every downstream computation (lattice construction,
    volume preservation, root products) relies on it.
    """

    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 3 or any(len(r) != 3 for r in self.entries):
            raise ValueError("entries must form a 3x3 matrix")
        for row in self.entries:
            for v in row:
                if not isinstance(v, int):
                    raise ValueError(f"matrix entries must be integers, got {v!r}")
        d = _det3(self.entries)
        if abs(d) != 1:
            raise ValueError(f"matrix must have determinant +/-1, got {d}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrixSpec":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @property
    def determinant(self) -> int:
        return _det3(self.entries)

    @property
    def trace(self) -> int:
        return self.entries[0][0] + self.entries[1][1] + self.entries[2][2]


# ---------------------------------------------------------------------------
# Characteristic polynomial and irreducibility
# ---------------------------------------------------------------------------


def char_poly(m: IntegerMatrixSpec) -> tuple[int, int, int, int]:
    """Exact characteristic polynomial ``det(x I - m)`` of a 3x3 matrix.

    Returns the coefficients ``(c0, c1, c2, c3)`` of
    ``c0 + c1 x + c2 x^2 + c3 x^3`` with ``c3 == 1``.  For a 3x3 matrix
    the coefficients are, up to sign, the determinant, the sum of
    principal 2x2 minors, and the trace; all are computed in exact
    integer arithmetic.
    """
    e = m.entries
    tr = m.trace
    minors = (
        e[1][1] * e[2][2] - e[1][2] * e[2][1]
        + e[0][0] * e[2][2] - e[0][2] * e[2][0]
        + e[0][0] * e[1][1] - e[0][1] * e[1][0]
    )
    det = m.determinant
    return (-det, minors, -tr, 1)


def _poly_eval(p: Sequence[int] | Sequence[Fraction], x: Fraction) -> Fraction:
    """Evaluate a polynomial given by ascending coefficients, exactly."""
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def check_irreducible(p: Sequence[int]) -> bool:
    """Whether a monic integer cubic has no rational root.

    For a monic cubic, irreducibility over the rationals is equivalent
    to the absence of an integer root, and any integer root must divide
    the constant coefficient.  The check is therefore a finite loop over
    the divisors of ``p[0]`` (and zero, when the constant term vanishes).
    """
    c0, c1, c2, c3 = (int(c) for c in p)
    if c3 != 1:
        raise ValueError("polynomial must be monic")
    if c0 == 0:
        return False  # x divides the polynomial
    candidates = set()
    for d in range(1, abs(c0) + 1):
        if abs(c0) % d == 0:
            candidates.update((d, -d))
    return all(_poly_eval((c0, c1, c2, c3), Fraction(r)) != 0 for r in candidates)


def _discriminant_cubic(p: Sequence[int]) -> int:
    """Discriminant of ``c0 + c1 x + c2 x^2 + c3 x^3``, exactly."""
    d, c, b, a = (int(v) for v in p)  # a x^3 + b x^2 + c x + d
    return (
        18 * a * b * c * d
        - 4 * b**3 * d
        + b**2 * c**2
        - 4 * a * c**3
        - 27 * a**2 * d**2
    )


def _polish_root(p: Sequence[int], x0: float) -> float:
    """Newton-polish a float root estimate of a monic cubic.

    Used only to sharpen the floating point *view* of a certified
    enclosure; the enclosure itself is never touched.
    """
    c0, c1, c2, _ = (float(c) for c in p)
    x = float(x0)
    for _ in range(6):
        fx = ((x + c2) * x + c1) * x + c0
        dfx = (3.0 * x + 2.0 * c2) * x + c1
        if dfx == 0.0:
            break
        step = fx / dfx
        x -= step
        if abs(step) <= 4 * math.ulp(x):
            break
    return x


def _root_values(p: Sequence[int], ivs: Sequence[Interval]) -> tuple[float, ...]:
    """Float views of the roots that ``ivs`` enclose: each midpoint
    Newton-polished, then clamped into its enclosure."""
    return tuple(
        min(max(_polish_root(p, float(iv.mid)), iv.to_floats()[0]), iv.to_floats()[1])
        for iv in ivs
    )


def isolate_real_roots(
    p: Sequence[int], tol: float = 1e-12
) -> list[Interval]:
    """Certified isolation of the three real roots of an integer cubic.

    Parameters
    ----------
    p:
        Ascending coefficients ``(c0, c1, c2, c3)`` of a monic integer
        cubic.  The polynomial must have a positive discriminant (three
        simple real roots); otherwise :class:`RootIsolationError` is
        raised.
    tol:
        Upper bound on the width of each returned interval.

    Returns
    -------
    list of three disjoint :class:`Interval` objects in ascending order,
    each containing exactly one root, each of width below ``tol``.

    The search brackets sign changes on a dyadic grid inside the Cauchy
    root bound and then bisects each bracket in exact rational
    arithmetic; no floating point is involved, so the enclosures are
    rigorous.
    """
    coeffs = tuple(int(c) for c in p)
    if len(coeffs) != 4 or coeffs[3] != 1:
        raise ValueError("expected ascending coefficients of a monic cubic")
    if _discriminant_cubic(coeffs) <= 0:
        raise RootIsolationError(
            "polynomial does not have three simple real roots "
            f"(discriminant {_discriminant_cubic(coeffs)})"
        )
    tol_f = Fraction(tol)
    if tol_f <= 0:
        raise ValueError("tol must be positive")

    bound = 1 + max(abs(c) for c in coeffs[:3])  # Cauchy bound for monic cubics

    # Find three sign-change brackets on a dyadic grid, refining the grid
    # until all three are separated.  With a positive discriminant this
    # terminates: the roots are distinct, so a fine enough grid splits them.
    pieces = 4
    brackets: list[tuple[Fraction, Fraction]] = []
    while True:
        step = Fraction(2 * bound, pieces)
        xs = [Fraction(-bound) + k * step for k in range(pieces + 1)]
        vals = [_poly_eval(coeffs, x) for x in xs]
        brackets = []
        for k in range(pieces):
            if vals[k] == 0:
                # Grid point hit a root exactly: shrink to a point bracket by
                # nudging both sides; handled by returning a degenerate pair.
                eps = step / 4
                brackets.append((xs[k] - eps, xs[k] + eps))
            elif vals[k] * vals[k + 1] < 0:
                brackets.append((xs[k], xs[k + 1]))
        if len(brackets) == 3:
            break
        if len(brackets) > 3:
            raise RootIsolationError("more than three sign changes found")
        pieces *= 2
        if pieces > 1 << 24:
            raise RootIsolationError("failed to separate roots on a dyadic grid")

    out: list[Interval] = []
    for lo, hi in brackets:
        flo = _poly_eval(coeffs, lo)
        while hi - lo > tol_f:
            mid = (lo + hi) / 2
            fmid = _poly_eval(coeffs, mid)
            if fmid == 0:
                # Rational root: cannot happen for an irreducible cubic, but
                # handle it by collapsing the bracket symmetrically.
                lo = mid - tol_f / 4
                hi = mid + tol_f / 4
                break
            if (flo < 0) == (fmid < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        out.append(Interval(lo, hi))
    out.sort(key=lambda iv: iv.lo)
    return out


# ---------------------------------------------------------------------------
# Eigenvalue data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    """Three certified real eigenvalues of an integer matrix, ascending.

    Attributes
    ----------
    values:
        Floating point midpoints ``(r1, r2, r3)`` of the enclosures.
    intervals:
        Exact rational enclosures, ascending and pairwise disjoint.
    poly:
        Ascending coefficients of the monic characteristic polynomial,
        kept so the enclosures can be refined on demand.
    sigma:
        The cyclic relabelling ``1 -> 2 -> 3 -> 1`` used when iterating
        over algebraic conjugates of expressions in the roots.
    """

    values: tuple[float, float, float]
    intervals: tuple[Interval, Interval, Interval]
    poly: Optional[tuple[int, int, int, int]] = None
    sigma: dict[int, int] = field(default_factory=lambda: {1: 2, 2: 3, 3: 1})

    @classmethod
    def from_matrix(
        cls, m: IntegerMatrixSpec, tol: float = 1e-12
    ) -> "EigenData":
        """Isolate the eigenvalues of ``m`` to width ``tol``.

        Raises :class:`RootIsolationError` if the characteristic
        polynomial does not have three simple real roots, and
        :class:`ValueError` if it has a rational root (the construction
        needs an irreducible characteristic polynomial).
        """
        p = char_poly(m)
        if not check_irreducible(p):
            raise ValueError(
                "characteristic polynomial is reducible over the rationals"
            )
        ivs = isolate_real_roots(p, tol=tol)
        return cls(values=_root_values(p, ivs), intervals=tuple(ivs), poly=p)  # type: ignore[arg-type]

    @classmethod
    def from_values(
        cls, values: Sequence[float], width: float = 0.0
    ) -> "EigenData":
        """Wrap plain floating point values as (possibly degenerate) enclosures.

        Intended for constructed examples and tests; enclosures built
        this way certify nothing beyond the given width.
        """
        if len(values) != 3:
            raise ValueError("expected three values")
        vs = tuple(float(v) for v in values)
        if not vs[0] < vs[1] < vs[2]:
            raise ValueError("values must be strictly ascending")
        w = Fraction(float(width))
        ivs = tuple(
            Interval(Fraction(v) - w, Fraction(v) + w) for v in vs
        )
        return cls(values=vs, intervals=ivs)  # type: ignore[arg-type]

    def refined(self, tol: float) -> "EigenData":
        """A new instance with enclosures re-isolated to width ``tol``.

        Only available when the instance was built from a matrix (the
        polynomial is recorded); otherwise raises ``ValueError``.
        """
        if self.poly is None:
            raise ValueError("no polynomial recorded; cannot refine")
        ivs = isolate_real_roots(self.poly, tol=tol)
        return EigenData(
            values=_root_values(self.poly, ivs),
            intervals=tuple(ivs),
            poly=self.poly,
            sigma=dict(self.sigma),
        )  # type: ignore[arg-type]

    def interval(self, index: int) -> Interval:
        """Enclosure of the ``index``-th eigenvalue, ``index`` in {1, 2, 3}."""
        if index not in (1, 2, 3):
            raise ValueError("eigenvalue index must be 1, 2 or 3")
        return self.intervals[index - 1]

    def product_interval(self) -> Interval:
        iv = Interval.point(1)
        for v in self.intervals:
            iv = iv * v
        return iv

    def check_product(self, expected: float = 1.0) -> bool:
        """Whether the product of the enclosures can equal ``expected``.

        Returns ``False`` when the exact interval product excludes the
        expected determinant, which flags inconsistent constructed data.
        """
        return self.product_interval().contains(Fraction(expected))


# ---------------------------------------------------------------------------
# Order-relation certification
# ---------------------------------------------------------------------------


def _compare(lhs: Interval, rhs: Interval) -> tuple[Optional[bool], float]:
    """Certified comparison ``lhs < rhs``.

    Returns a three-state answer and a signed float margin:
    ``True`` when ``lhs.hi < rhs.lo`` (certified), ``False`` when
    ``lhs.lo >= rhs.hi`` (certified violated, allowing equality), and
    ``None`` when the enclosures overlap so the order is indeterminate
    at the current width.  The margin is ``rhs.lo - lhs.hi`` (positive
    exactly when certified).
    """
    margin = rhs.lo - lhs.hi
    if lhs.hi < rhs.lo:
        return True, float(margin)
    if lhs.lo >= rhs.hi:
        return False, float(margin)
    return None, float(margin)


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the five-relation eigenvalue order check.

    ``states`` holds one entry per relation in :data:`CHAIN_RELATIONS`:
    ``True`` (certified), ``False`` (certified violated) or ``None``
    (indeterminate at the given enclosure width).  ``margins`` holds the
    corresponding signed certified margins.
    """

    states: tuple[Optional[bool], ...]
    margins: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return all(s is True for s in self.states)

    @property
    def indeterminate(self) -> bool:
        return any(s is None for s in self.states)

    @property
    def failed(self) -> bool:
        return any(s is False for s in self.states)

    def describe(self) -> str:
        parts = []
        for name, state, margin in zip(CHAIN_RELATIONS, self.states, self.margins):
            tag = {True: "ok", False: "VIOLATED", None: "indeterminate"}[state]
            parts.append(f"{name}: {tag} (margin {margin:.3e})")
        return "; ".join(parts)


def verify_eigenvalue_condition(e: EigenData) -> ChainReport:
    """Certify the order chain ``0 < r2^2 < r1 < r2 < 1 < r3``.

    Each relation is checked on the exact rational enclosures, so a
    ``True`` state is a proof at the current enclosure width.  Narrower
    enclosures can only turn ``None`` states into definite ones; they
    never flip a definite state (monotonicity under refinement).
    """
    r1, r2, r3 = e.intervals
    zero = Interval.point(0)
    one = Interval.point(1)
    r2sq = r2 * r2
    checks = (
        _compare(zero, r2sq),
        _compare(r2sq, r1),
        _compare(r1, r2),
        _compare(r2, one),
        _compare(one, r3),
    )
    return ChainReport(
        states=tuple(c[0] for c in checks),
        margins=tuple(c[1] for c in checks),
    )


# ---------------------------------------------------------------------------
# Evaluation of quadratic expressions at the roots
# ---------------------------------------------------------------------------


def poly_mulmod(
    a: Sequence[Fraction | int],
    b: Sequence[Fraction | int],
    p: Sequence[int],
) -> tuple[Fraction, Fraction, Fraction]:
    """Multiply two quadratic expressions modulo a monic cubic, exactly.

    ``a`` and ``b`` are coefficient triples ``(p0, p1, p2)`` representing
    ``p0 + p1 t + p2 t^2`` in the quotient ring defined by the monic
    cubic ``p``; the product is reduced using ``t^3 = -c2 t^2 - c1 t - c0``
    and returned as another triple.  This is the ring structure behind
    the conjugate-evaluation homomorphism and the lattice integrality
    checks.
    """
    c0, c1, c2, c3 = (Fraction(int(c)) for c in p)
    if c3 != 1:
        raise ValueError("modulus must be monic")
    a0, a1, a2 = (Fraction(x) for x in a)
    b0, b1, b2 = (Fraction(x) for x in b)
    # Raw degree-4 product coefficients.
    d = [
        a0 * b0,
        a0 * b1 + a1 * b0,
        a0 * b2 + a1 * b1 + a2 * b0,
        a1 * b2 + a2 * b1,
        a2 * b2,
    ]
    # Reduce t^4 then t^3.
    d[1] -= d[4] * c0
    d[2] -= d[4] * c1
    d[3] -= d[4] * c2
    d[0] -= d[3] * c0
    d[1] -= d[3] * c1
    d[2] -= d[3] * c2
    return (d[0], d[1], d[2])


def conjugate_eval(
    coeffs: Sequence[Fraction | int | float],
    index: int,
    e: EigenData,
) -> Interval:
    """Evaluate ``p0 + p1 r + p2 r^2`` at the ``index``-th eigenvalue.

    The evaluation is carried out in exact interval arithmetic over the
    recorded enclosure of the root, so the returned :class:`Interval`
    rigorously encloses the value; its midpoint is the floating point
    estimate.  Rational (or exactly representable float) coefficients
    keep the enclosure exact.
    """
    if len(coeffs) != 3:
        raise ValueError("expected a coefficient triple (p0, p1, p2)")
    p0, p1, p2 = (Fraction(c) for c in coeffs)
    r = e.interval(index)
    return (r * r).scale(p2) + r.scale(p1) + Interval.point(p0)
