"""Tests for annulus bookkeeping, avoidance, and collapse planning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert.algebraic_core import EigenData, IntegerMatrixSpec
from nilcert.nilmanifold import AutomorphismSpec
from nilcert.spectral_planner import (
    AnnulusSpec,
    LabeledSpectrum,
    PlanningError,
    annulus_avoidance,
    apply_plan,
    in_plane_eigen,
    plan_center_collapse,
    solve_plane_rotation_angle,
)
from nilcert.deformation import RotationPlane

angles = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)


def test_annulus_validation_and_distance():
    ann = AnnulusSpec(0.32, 0.37)
    assert ann.distance(0.1) > 0
    assert ann.distance(0.345) < 0
    assert ann.distance(0.5) > 0
    with pytest.raises(ValueError):
        AnnulusSpec(0.4, 0.3)
    with pytest.raises(ValueError):
        AnnulusSpec(-0.1, 0.3)


def test_labeled_spectrum_from_default_diagonal(auto, annuli, labeled):
    assert labeled.counts == {"k": 4, "l": 2, "m": 3}
    assert labeled.dimension == 9
    assert abs(labeled.product() - 1.0) < 1e-12
    stable_axes = {axis for _, axis in labeled.stable}
    assert stable_axes == {0, 1, 2, 5}
    center_axes = {axis for _, axis in labeled.center}
    assert center_axes == {3, 4}


def test_labeled_spectrum_rejects_modulus_inside_annulus(annuli):
    diag = np.array([0.35, 0.1, 0.1, 0.9, 0.9, 0.9, 3.0, 3.0, 4.7])
    diag = diag / np.prod(diag) ** (1 / 9)
    with pytest.raises(PlanningError):
        LabeledSpectrum.from_diagonal(diag, annuli[0], annuli[1])


def test_plan_single_step_branch_for_default_spectrum(plan, eigendata):
    l1, l2, l3 = eigendata.values
    assert len(plan.steps) == 1
    assert plan.to_json_dict()["branch"] == "single_step"
    assert plan.mu == 1.05
    step = plan.steps[-1]
    assert step.axes == (3, 8)
    target_mu, target_big = step.target_pair
    assert target_mu == pytest.approx(1.05, abs=1e-12)
    assert target_big == pytest.approx(l2 * l3 * l3 / 1.05, rel=1e-9)
    # The planned angle realizes the target trace on the rotated plane.
    assert 0.0 < step.angle < math.pi / 2


def test_planned_angle_matches_trace_equation(plan, eigendata):
    l1, l2, l3 = eigendata.values
    step = plan.steps[-1]
    c, u = l2, l3 * l3
    target_trace = 1.05 + c * u / 1.05
    assert (c + u) * math.cos(step.angle) == pytest.approx(
        target_trace, rel=1e-10
    )


def _chain_spectrum():
    # Two unstable moduli of which the smaller exceeds c u / (1 + s).
    stable = tuple((0.9 * 1.1 * 1.25) ** (-1.0 / 6.0) for _ in range(6))
    return LabeledSpectrum(
        stable=tuple((s, i) for i, s in enumerate(stable)),
        center=((0.9, 6),),
        unstable=((1.1, 7), (1.25, 8)),
    )


def _three_unstable_spectrum():
    stable = tuple((0.8 * 1.3**3) ** (-1.0 / 5.0) for _ in range(5))
    return LabeledSpectrum(
        stable=tuple((s, i) for i, s in enumerate(stable)),
        center=((0.8, 5),),
        unstable=((1.3, 6), (1.3, 7), (1.3, 8)),
    )


def _modulus_one_spectrum():
    # A center pair straddling one; the stable values are rescaled so the
    # total product is one.
    total = 0.5 * 0.5 * 0.9 * 1.1111111111111112 * 4.0
    scale = total ** (-1.0 / 2.0)
    return LabeledSpectrum(
        stable=((0.5 * scale, 0), (0.5 * scale, 1)),
        center=((0.9, 2), (1.1111111111111112, 3)),
        unstable=((2.0, 4), (2.0, 5)),
    )


def _six_dim_spectrum():
    # One step plans it: 0.95 * 5 / 1.05 exceeds the other unstable modulus.
    scale = (0.9 * 0.95 * 2.0 * 5.0) ** (-1.0 / 2.0)
    return LabeledSpectrum(
        stable=((scale, 0), (scale, 1)),
        center=((0.9, 2), (0.95, 3)),
        unstable=((2.0, 4), (5.0, 5)),
    )


def test_plan_eigenvalue_bookkeeping_is_exact(plan, auto):
    six = _six_dim_spectrum()
    six_plan = plan_center_collapse(six, s=0.05, annuli=(), dim=6)
    assert six_plan.steps[0].axes == (3, 5)
    cases = [(np.diag(auto.diag), plan), (six.diagonal_matrix(6), six_plan)]
    for diagonal, p in cases:
        final = apply_plan(diagonal, p)
        expected = sorted(p.final_moduli)
        actual = sorted(float(abs(v)) for v in np.linalg.eigvals(final))
        assert actual == pytest.approx(expected, rel=1e-8)


def test_plan_preserves_volume(plan, auto):
    final = apply_plan(np.diag(auto.diag), plan)
    assert abs(abs(np.linalg.det(final)) - 1.0) < 1e-9


def test_plan_avoidance_certified(plan):
    for res in plan.avoidance:
        assert res.ok and res.certified
        assert res.margin > 0
        assert res.grid >= 1024
        assert "certified" in res.describe()


def test_plan_to_json_round_trip_is_deterministic(labeled, annuli):
    p1 = plan_center_collapse(labeled, s=0.05, annuli=annuli, grid=1024)
    p2 = plan_center_collapse(labeled, s=0.05, annuli=annuli, grid=1024)
    assert p1.to_json_dict() == p2.to_json_dict()


def test_in_plane_eigen_product_and_trace():
    vals = in_plane_eigen(0.4260220477604617, 68.73785917094757, 1.139094)
    prod = vals[0] * vals[1]
    assert prod.real == pytest.approx(0.4260220477604617 * 68.73785917094757)
    assert abs(prod.imag) < 1e-9


def test_solve_plane_rotation_angle_reaches_monotone_targets():
    p, q = 0.4260220477604617, 68.73785917094757
    # Reachable target: strictly between the theta=pi/2 and theta=0 traces.
    theta = solve_plane_rotation_angle(p, q, 30.0)
    # The angle is bisected to 1e-10, so the trace lands within
    # (p + q) * 1e-10 of the target.
    assert (p + q) * math.cos(theta) == pytest.approx(30.0, abs=1e-7)
    with pytest.raises(PlanningError):
        solve_plane_rotation_angle(p, q, p + q + 1.0)


@pytest.mark.parametrize(
    "spectrum, bound",
    [(_chain_spectrum, "1.07143 does not exceed max(rest, 1 + s) = 1.1"),
     (_three_unstable_spectrum, "0.990476 does not exceed max(rest, 1 + s) = 1.3")],
    ids=["feasible-chain", "infeasible-chain"],
)
def test_chain_spectrum_is_not_planned(spectrum, bound):
    # Each unstable modulus but the largest stays above c u / (1 + s), so
    # the spectrum would need one rotation per unstable modulus.
    with pytest.raises(PlanningError) as info:
        plan_center_collapse(spectrum(), s=0.05, annuli=(), dim=9)
    assert str(info.value) == "one step cannot plan the spectrum: c u/(1 + s) = " + bound


def test_straddling_center_is_not_planned():
    # One step would have to plan a modulus of exactly one.
    with pytest.raises(PlanningError, match="the center straddles one: moduli 0.9 and 1.11111"):
        plan_center_collapse(_modulus_one_spectrum(), s=0.05, annuli=(), dim=6)


def test_all_centers_above_one_not_supported():
    eigs = LabeledSpectrum(
        stable=((0.25, 0), (0.25, 1)),
        center=((1.1, 2), (1.2, 3)),
        unstable=((2.0, 4), (2.0 / (0.25 * 0.25 * 1.1 * 1.2 * 2.0 * 2.0), 5)),
    )
    with pytest.raises(PlanningError):
        plan_center_collapse(eigs, s=0.05, annuli=(), dim=6)


def test_tie_break_prefers_smallest_axis_among_equal_moduli(auto, annuli, labeled):
    plan = plan_center_collapse(labeled, s=0.05, annuli=annuli, grid=1024)
    # Both centers share modulus l2; the collapse plane must take axis 3.
    assert plan.steps[-1].axes[0] == 3


def test_avoidance_zero_angle_single_point(auto, annuli):
    # With a = 0 the family is the diagonal map itself: its margin is the
    # smallest distance of a diagonal entry, here 0.2831 on two fixed axes.
    fixed = np.delete(auto.diag, [3, 8]).tolist()
    pair = (auto.diag[3], auto.diag[8])
    for ann in annuli:
        res = annulus_avoidance(pair, fixed, 0.0, ann, 1024)
        assert res.ok and res.certified and res.grid == 1024
        assert res.margin == min(ann.distance(float(m)) for m in auto.diag)
        ok, margin = _reference_avoidance(
            np.diag(auto.diag), RotationPlane(3, 8), 0.0, ann
        )
        assert (res.ok, res.margin) == (ok, margin)
    with pytest.raises(ValueError):
        annulus_avoidance(pair, fixed, -0.1, annuli[0], 1024)


def test_avoidance_detects_violation(auto, annuli):
    # An eigenvalue pinned inside the annulus on an untouched axis.
    mid = (annuli[0].alpha_q + annuli[0].beta_q) / 2
    diag = np.array(auto.diag, dtype=float)
    diag[0] = mid
    fixed = np.delete(diag, [3, 8]).tolist()
    res = annulus_avoidance((diag[3], diag[8]), fixed, 0.5, annuli[0], 1024)
    assert not res.ok and not res.certified
    assert res.margin == annuli[0].distance(mid) < 0
    assert "inside the annulus" in res.describe()
    ok, margin = _reference_avoidance(
        np.diag(diag), RotationPlane(3, 8), 0.5, annuli[0]
    )
    assert not ok and res.margin == margin
    # A moving modulus: rotating (0.426, 68.7) by the planned angle sweeps
    # the small one through [0.426, 1.05], across an annulus at [0.6, 0.7].
    pair = (auto.diag[3], auto.diag[8])
    res = annulus_avoidance(pair, [], 1.139, AnnulusSpec(0.6, 0.7), 1024)
    assert not res.ok and res.margin == pytest.approx(-0.05)


def test_planning_error_for_annulus_containing_center(auto, annuli):
    bad_lower = AnnulusSpec(0.40, 0.45)  # contains l2 = 0.4260...
    with pytest.raises(PlanningError):
        LabeledSpectrum.from_diagonal(auto.diag, bad_lower, annuli[1])


# -- closed-form avoidance against a per-angle reference ---------------------


def _reference_avoidance(dq, plane, a, ann, grid=1024):
    """The oracle: the family sampled one angle at a time, one rotation and
    one ``eig`` per point of a uniform grid on ``[0, a]``.  Returns whether
    every sampled modulus clears the annulus, and the sampled margin."""
    margin = math.inf
    for theta in np.linspace(0.0, a, grid):
        m = plane.rotation_matrix(float(theta)) @ np.asarray(dq, dtype=float)
        for ev in np.linalg.eigvals(m):
            margin = min(margin, ann.distance(abs(ev)))
    return margin > 0, margin


def _companion_case(t, s):
    """Diagonal, planned step, and default annuli for the companion matrix of
    x^3 - t x^2 + s x - 1."""
    eig = EigenData.from_matrix(
        IntegerMatrixSpec.from_rows([[0, 0, 1], [1, 0, -s], [0, 1, t]])
    )
    l1, l2, l3 = eig.values
    g1 = (l2 / l1) ** (1.0 / 3.0)
    g2 = (l3 / 1.05) ** (1.0 / 3.0)
    annuli = (AnnulusSpec(l1 * g1, l2 / g1), AnnulusSpec(1.05 * g2, l3 / g2))
    diag = AutomorphismSpec.from_eigendata(eig).diag
    labeled = LabeledSpectrum.from_diagonal(diag, annuli[0], annuli[1])
    plan = plan_center_collapse(labeled, s=0.05, annuli=annuli, grid=1024)
    return diag, plan, annuli


def _agrees_with_oracle(res, oracle, diagonal):
    ok, margin = oracle
    assert res.ok == ok
    # The closed form covers the whole range, so it is never above the grid.
    assert res.margin <= margin + 1e-12 * abs(margin)
    if diagonal:
        assert res.margin == pytest.approx(margin, rel=1e-9)


@pytest.mark.parametrize("which", [0, 1])
def test_batched_avoidance_matches_reference_on_default_plan(
    plan, auto, annuli, which
):
    step = plan.steps[-1]
    fixed = np.delete(auto.diag, step.axes).tolist()
    res = annulus_avoidance(
        step.input_pair, fixed, step.angle, annuli[which], 1024
    )
    assert res == plan.avoidance[which]
    assert res.certified and 0 <= res.error_bound < 1e-14
    oracle = _reference_avoidance(
        np.diag(auto.diag), step.plane, step.angle, annuli[which]
    )
    _agrees_with_oracle(res, oracle, diagonal=True)


@pytest.mark.parametrize(
    "ts", [(9, 6), (12, 7), (15, 8), (19, 9), (20, 9)], ids=lambda ts: "t%ds%d" % ts
)
def test_avoidance_certifies_the_plan_family(ts):
    # (20, 9) has the family's thinnest lower margin, 2.1e-2.
    diag, plan, annuli = _companion_case(*ts)
    step = plan.steps[-1]
    assert len(plan.steps) == 1
    assert [r.certified for r in plan.avoidance] == [True, True]
    for res, ann in zip(plan.avoidance, annuli):
        assert (res.grid, res.densifications) == (1024, 0)
        oracle = _reference_avoidance(np.diag(diag), step.plane, step.angle, ann)
        _agrees_with_oracle(res, oracle, diagonal=True)
    # On each lower annulus the margin is set by a fixed modulus.
    fixed = np.delete(diag, step.axes)
    assert plan.avoidance[0].margin == min(annuli[0].distance(m) for m in fixed)
    if ts == (20, 9):
        assert plan.avoidance[0].margin == pytest.approx(0.02118936875, rel=1e-9)


def test_batched_avoidance_matches_reference_on_chain_plan():
    """The two steps a chain of rotations planned for ``_chain_spectrum``:
    each rotates a pair of bookkept moduli, with the rest fixed, over
    ranges thinner than 0.12 and near the pair's realification angle.  On
    the diagonal map of those moduli the closed form agrees with the
    per-angle oracle, as the recorded margins do."""
    annuli = (AnnulusSpec(0.5, 0.8), AnnulusSpec(1.5, 2.0))
    stable = [m for m, _ in _chain_spectrum().stable]
    mu = math.sqrt(min(1.1, (0.9 * 1.1 * 1.25) ** 0.25))
    acc = 0.9 * 1.1 / mu
    steps = [
        ((0.9, 1.1), stable + [1.25], acc + mu),
        ((acc, 1.25), stable + [mu], acc * 1.25 / mu + mu),
    ]
    margins = []
    for pair, fixed, trace in steps:
        angle = solve_plane_rotation_angle(*pair, trace)
        assert 0.09 < angle < 0.12
        diagonal = np.diag(list(pair) + fixed)
        for ann in annuli:
            res = annulus_avoidance(pair, fixed, angle, ann, 256)
            assert res.ok and res.certified and res.grid == 256
            oracle = _reference_avoidance(diagonal, RotationPlane(0, 1), angle, ann, grid=256)
            _agrees_with_oracle(res, oracle, diagonal=True)
            margins.append(res.margin)
    assert margins == pytest.approx([0.1, 0.25, 0.16398, 0.25], rel=1e-4)


def _block_moduli(p, q, thetas):
    """Moduli of ``R_theta . diag(p, q)`` by a stacked 2x2 ``eigvals``."""
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas), np.sin(thetas)
    blocks = np.stack([c * p, -s * q, s * p, c * q], axis=-1).reshape(-1, 2, 2)
    return np.abs(np.linalg.eigvals(blocks))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    p=st.floats(0.05, 5.0),
    ratio=st.floats(1.001, 200.0),
    a=angles,
    above=st.booleans(),
    start=st.floats(0.0, 0.95),
    width=st.floats(0.01, 1.0),
)
def test_closed_form_avoidance_matches_dense_2x2_sampling(
    p, ratio, a, above, start, width
):
    """The margin is the smallest over a dense 2x2 ``eigvals`` sample of
    ``[0, a]`` (which includes the realification angle), and it is attained:
    some angle in range has a modulus at exactly that signed distance."""
    q = p * ratio
    r = math.sqrt(p * q)  # the modulus of the pair once realified
    lo, hi = (r, 2.0 * q) if above else (0.5 * p, r)
    alpha = lo + start * (hi - lo)
    ann = AnnulusSpec(alpha, alpha + width * (hi - alpha))
    res = annulus_avoidance((p, q), [], a, ann, 1024)
    assert res.ok == (res.margin > 0)
    assert res.certified <= res.ok
    assert 0 <= res.error_bound < 1e-12 * q
    if abs(res.margin) > 1e-9 * q:
        assert res.certified == res.ok

    def theta_of(m):  # the angle where the block has a root of modulus m
        return math.acos(min(1.0, (m + p * q / m) / (p + q)))

    tol = 1e-7 * q  # 2x2 eig near the defective angle is good to ~sqrt(eps)
    thetas = np.linspace(0.0, a, 2049)
    if theta_of(r) < a:
        thetas = np.append(thetas, theta_of(r))
    sampled = min(ann.distance(m) for m in _block_moduli(p, q, thetas).ravel())
    assert res.margin <= sampled + tol
    witnesses = [
        m
        for m in (ann.alpha_q - res.margin, ann.beta_q + res.margin)
        if p * (1 - 1e-12) <= m <= q * (1 + 1e-12)
        and theta_of(m) <= a + 1e-7  # acos near 1 is good to ~sqrt(eps)
    ]
    assert witnesses
    attained = [
        abs(ann.distance(m) - res.margin)
        for w in witnesses
        for m in _block_moduli(p, q, [theta_of(w)])[0]
    ]
    assert min(attained) <= tol
