"""Tests for annulus bookkeeping, realification, and collapse planning."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcert.algebraic_core import EigenData, IntegerMatrixSpec
from nilcert.nilmanifold import AutomorphismSpec
from nilcert.spectral_planner import (
    AnnulusSpec,
    AvoidanceResult,
    LabeledSpectrum,
    PlanningError,
    annulus_avoidance,
    apply_plan,
    check_realification_admissible,
    find_realifying_angle,
    in_plane_eigen,
    jordan_detuning,
    plan_center_collapse,
    solve_plane_rotation_angle,
)
from nilcert.deformation import RotationPlane

angles = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
entries = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


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
    assert plan.branch == "single_step"
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


def test_plan_eigenvalue_bookkeeping_is_exact(plan, auto):
    final = apply_plan(np.diag(auto.diag), plan)
    expected = sorted(plan.final_moduli)
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


def test_find_realifying_angle_conformal_case():
    m = np.array([[0.3, -0.2], [0.2, 0.3]])
    theta = find_realifying_angle(m)
    assert theta == pytest.approx(math.pi / 2, abs=1e-12) or theta >= 0


def test_find_realifying_angle_already_real():
    m = np.array([[2.0, 0.3], [0.1, 0.5]])
    assert find_realifying_angle(m) == 0.0


@given(entries, entries, entries, entries)
def test_find_realifying_angle_gives_nonnegative_discriminant(a, b, c, d):
    m = np.array([[a, b], [c, d]])
    det = a * d - b * c
    if abs(det) < 1e-6:
        return
    theta = find_realifying_angle(m)
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    rm = rot @ m
    disc = (rm[0, 0] + rm[1, 1]) ** 2 - 4 * det
    assert disc >= -1e-10


def test_jordan_detuning_moves_discriminant_both_signs():
    for lam in (0.7, -0.7):
        theta = jordan_detuning(lam, 1.0)
        assert theta != 0.0
    with pytest.raises(PlanningError):
        jordan_detuning(0.0, 1.0)
    with pytest.raises(PlanningError):
        jordan_detuning(0.5, 0.0)


def test_realification_rejected_inside_annulus(annuli):
    # A complex pair whose modulus lies inside the lower annulus.
    r = (annuli[0].alpha_q + annuli[0].beta_q) / 2
    m = np.array([[0.0, -r], [r, 0.0]])
    with pytest.raises(PlanningError):
        check_realification_admissible(m, annuli)


def test_chain_branch_feasible_example():
    stable = tuple(
        (0.9 * 1.1 * 1.25) ** (-1.0 / 6.0) for _ in range(6)
    )
    eigs = LabeledSpectrum(
        stable=tuple((s, i) for i, s in enumerate(stable)),
        center=((0.9, 6),),
        unstable=((1.1, 7), (1.25, 8)),
    )
    plan = plan_center_collapse(eigs, s=0.05, annuli=(), dim=9)
    assert plan.branch == "chain"
    assert len(plan.steps) == 2
    assert plan.mu > 1.0
    # Executing the plan preserves the product.
    final = apply_plan(np.diag(eigs.diagonal_matrix(9).diagonal()), plan)
    assert abs(abs(np.linalg.det(final)) - 1.0) < 1e-9


def test_chain_branch_infeasible_reports_step():
    stable = tuple(
        (0.8 * 1.3**3) ** (-1.0 / 5.0) for _ in range(5)
    )
    eigs = LabeledSpectrum(
        stable=tuple((s, i) for i, s in enumerate(stable)),
        center=((0.8, 5),),
        unstable=((1.3, 6), (1.3, 7), (1.3, 8)),
    )
    with pytest.raises(PlanningError, match="step"):
        plan_center_collapse(eigs, s=0.05, annuli=(), dim=9)


def test_modulus_one_branch():
    # A center pair straddling one collapses onto modulus exactly one;
    # the stable values are rescaled so the total product is one.
    total = 0.5 * 0.5 * 0.9 * 1.1111111111111112 * 4.0
    scale = total ** (-1.0 / 2.0)
    eigs = LabeledSpectrum(
        stable=((0.5 * scale, 0), (0.5 * scale, 1)),
        center=((0.9, 2), (1.1111111111111112, 3)),
        unstable=((2.0, 4), (2.0, 5)),
    )
    plan = plan_center_collapse(eigs, s=0.05, annuli=(), dim=6)
    assert plan.branch == "modulus_one"
    assert plan.mu == 1.0


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


def test_avoidance_grid_minimum_enforced(auto, annuli):
    dq = np.diag(auto.diag)
    plane = RotationPlane.from_basis_indices(3, 8)
    with pytest.raises(ValueError):
        annulus_avoidance(dq, plane, 1.0, annuli[0], grid=50)


def test_avoidance_zero_angle_single_point(auto, annuli):
    dq = np.diag(auto.diag)
    plane = RotationPlane.from_basis_indices(3, 8)
    res = annulus_avoidance(dq, plane, 0.0, annuli[0])
    assert res.ok and res.certified
    assert res.grid == 1


def test_avoidance_detects_violation(auto, annuli):
    # An eigenvalue pinned inside the annulus on an untouched axis.
    mid = (annuli[0].alpha_q + annuli[0].beta_q) / 2
    diag = np.array(auto.diag, dtype=float)
    diag[0] = mid
    plane = RotationPlane.from_basis_indices(3, 8)
    res = annulus_avoidance(np.diag(diag), plane, 0.5, annuli[0])
    assert not res.ok
    assert res.violations


def test_planning_error_for_annulus_containing_center(auto, annuli):
    bad_lower = AnnulusSpec(0.40, 0.45)  # contains l2 = 0.4260...
    with pytest.raises(PlanningError):
        LabeledSpectrum.from_diagonal(auto.diag, bad_lower, annuli[1])


# -- batched avoidance sweep against a per-angle reference -------------------


def _reference_avoidance(dq, plane, a, ann, grid=1024, max_densifications=6):
    """The sweep evaluated one angle at a time: one rotation, one ``eig``
    and one ``cond`` per grid point, scalar distances and bounds."""
    dq = np.asarray(dq, dtype=float)
    norm_dq = float(np.linalg.norm(dq, 2))
    n_grid = grid
    densifications = 0
    while True:
        if a == 0.0:
            thetas = np.array([0.0])
            half_step = 0.0
        else:
            thetas = np.linspace(0.0, a, n_grid)
            half_step = a / (n_grid - 1) / 2.0
        margin = math.inf
        lip = 0.0
        point_certified = True
        violations = []
        for theta in thetas:
            m = plane.rotation_matrix(float(theta)) @ dq
            evals, vecs = np.linalg.eig(m)
            local_margin = math.inf
            for ev in evals:
                d = ann.distance(abs(ev))
                if d <= 0:
                    violations.append((float(theta), complex(ev)))
                local_margin = min(local_margin, d)
            margin = min(margin, local_margin)
            local_bound = float(np.linalg.cond(vecs)) * half_step * norm_dq
            lip = max(lip, local_bound)
            if local_bound >= local_margin:
                point_certified = False
        ok = not violations
        certified = ok and point_certified
        if not ok or certified or densifications >= max_densifications:
            return AvoidanceResult(
                ok=ok,
                certified=certified,
                margin=float(margin),
                lip_bound=float(lip),
                grid=len(thetas),
                densifications=densifications,
                violations=tuple(violations),
            )
        n_grid *= 2
        densifications += 1


def _companion_case(t, s):
    """Diagonal map, planned plane and angle, and default annuli for the
    companion matrix of x^3 - t x^2 + s x - 1."""
    eig = EigenData.from_matrix(
        IntegerMatrixSpec.from_rows([[0, 0, 1], [1, 0, -s], [0, 1, t]])
    )
    l1, l2, l3 = eig.values
    g1 = (l2 / l1) ** (1.0 / 3.0)
    g2 = (l3 / 1.05) ** (1.0 / 3.0)
    annuli = (AnnulusSpec(l1 * g1, l2 / g1), AnnulusSpec(1.05 * g2, l3 / g2))
    diag = AutomorphismSpec.from_eigendata(eig).diag
    labeled = LabeledSpectrum.from_diagonal(diag, annuli[0], annuli[1])
    step = plan_center_collapse(labeled, s=0.05, annuli=(), grid=1024).steps[-1]
    return np.diag(diag), step.plane, step.angle, annuli


@pytest.mark.parametrize("which", [0, 1])
def test_batched_avoidance_matches_reference_on_default_plan(
    plan, auto, annuli, which
):
    step = plan.steps[-1]
    args = (np.diag(auto.diag), step.plane, step.angle, annuli[which])
    res = annulus_avoidance(*args)
    assert res == _reference_avoidance(*args)
    assert res == plan.avoidance[which]


def test_batched_avoidance_matches_reference_on_violation_and_zero_angle(
    auto, annuli
):
    mid = (annuli[0].alpha_q + annuli[0].beta_q) / 2
    diag = np.array(auto.diag, dtype=float)
    diag[0] = mid
    plane = RotationPlane.from_basis_indices(3, 8)
    res = annulus_avoidance(np.diag(diag), plane, 0.5, annuli[0])
    assert not res.ok and len(res.violations) == 1024
    assert res == _reference_avoidance(np.diag(diag), plane, 0.5, annuli[0])
    args = (np.diag(auto.diag), plane, 0.0, annuli[0])
    assert annulus_avoidance(*args) == _reference_avoidance(*args)


def test_batched_avoidance_matches_reference_when_uncertified():
    # x^3 - 20x^2 + 9x - 1: the lower annulus stays grid-only after the
    # sixth doubling (65,536 points), the case the planner stage rejects.
    dq, plane, angle, annuli = _companion_case(20, 9)
    res = annulus_avoidance(dq, plane, angle, annuli[0])
    assert res.ok and not res.certified
    assert (res.grid, res.densifications) == (65536, 6)
    assert res == _reference_avoidance(dq, plane, angle, annuli[0])


def test_batched_avoidance_matches_reference_on_chain_plan():
    """Chain steps rotate a non-diagonal map, where the stacked product
    ``R_theta . dq`` is not guaranteed to round as the unstacked one does.
    The discrete outcome must agree exactly; margin and Lipschitz bound
    within 1e-9 relative.  Near the end of the second step's range the map
    is nearly defective, so its eigenbasis condition number is rounding
    sensitive there: on the default 1,024-point grid, taking it on the
    complex-typed basis that a stacked ``eig`` returns for all-real rows
    moved ``lip_bound`` by 5.5e-13 relative, which is why the sweep uses
    the real basis for those rows.  With that, this plan agrees exactly;
    the tolerance covers the stacked product's rounding."""
    stable = tuple((0.9 * 1.1 * 1.25) ** (-1.0 / 6.0) for _ in range(6))
    eigs = LabeledSpectrum(
        stable=tuple((s, i) for i, s in enumerate(stable)),
        center=((0.9, 6),),
        unstable=((1.1, 7), (1.25, 8)),
    )
    annuli = (AnnulusSpec(0.5, 0.8), AnnulusSpec(1.5, 2.0))
    plan = plan_center_collapse(eigs, s=0.05, annuli=annuli, grid=256, dim=9)
    assert plan.branch == "chain" and len(plan.avoidance) == 4
    current = eigs.diagonal_matrix(9)
    results = iter(plan.avoidance)
    for step in plan.steps:
        for ann in annuli:
            res = next(results)
            ref = _reference_avoidance(
                current, step.plane, step.angle, ann, grid=256
            )
            for name in ("ok", "certified", "grid", "densifications",
                         "violations"):
                assert getattr(res, name) == getattr(ref, name), name
            assert res.margin == pytest.approx(ref.margin, rel=1e-9)
            assert res.lip_bound == pytest.approx(ref.lip_bound, rel=1e-9)
        current = step.plane.rotation_matrix(step.angle) @ current
