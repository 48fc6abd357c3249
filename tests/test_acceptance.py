"""End-to-end acceptance checks for the certified construction.

Each test exercises one acceptance criterion at its stated tolerance and
runtime budget, and records a pass/fail line for the terminal summary.
"""

import math
import time

import numpy as np
import pytest

from nilcert.algebraic_core import (
    EigenData,
    IntegerMatrixSpec,
    char_poly,
    verify_eigenvalue_condition,
)
from nilcert.cone_certifier import (
    CENTER_AXES,
    EXPANDING_AXES,
    STRONG_STABLE_AXES,
    bunching_report,
    cocycle_product,
    extract_splitting,
    find_domination_exponent,
    principal_angle,
    robustness_radius,
    splitting_deviation_sweep,
    splitting_distance,
)
from nilcert.deformation import (
    DeformedMap,
    LocalRotationMap,
    make_profile,
    psi_eval,
    psi_slope,
)
from nilcert.nilmanifold import DIM, bch_multiply
from nilcert.spectral_planner import (
    LabeledSpectrum,
    PlanningError,
    apply_plan,
    plan_center_collapse,
)
from nilcert import _kernels

ROWS = [[2, -3, 1], [-3, 6, -2], [1, -2, 1]]


def test_criterion_1_spectral_certificate(criterion_reporter):
    start = time.perf_counter()
    spec = IntegerMatrixSpec.from_rows(ROWS)
    poly = char_poly(spec)
    eig = EigenData.from_matrix(spec, tol=1e-12)
    chain = verify_eigenvalue_condition(eig)
    elapsed = time.perf_counter() - start

    poly_ok = poly == (-1, 6, -9, 1)
    widths_ok = all(float(iv.width) < 1e-12 for iv in eig.intervals)
    margin = min(chain.margins)
    ok = (
        poly_ok
        and widths_ok
        and chain.ok
        and margin >= 0.09
        and elapsed < 1.0
    )
    criterion_reporter(
        1,
        ok,
        f"char poly exact, enclosures < 1e-12, chain margin "
        f"{margin:.4f} >= 0.09, {elapsed:.2f}s < 1s",
    )
    assert ok


def test_criterion_2_deformation_derivatives(
    criterion_reporter, collapse_angle, profile, rotation_plane
):
    start = time.perf_counter()
    rot = LocalRotationMap(profile=profile, plane=rotation_plane)
    eps = profile.eps

    # Radial slope bound on 10^4 log-spaced radii.
    ts = np.geomspace(1e-12, profile.support_radius, 10_000)
    slope_sup = float(np.max(np.abs(ts * psi_slope(profile, ts))))
    slope_ok = slope_sup < eps

    # Pointwise rotation distance and volume at 10^3 random points.
    rng = np.random.default_rng(0)
    rot_dev = 0.0
    det_dev = 0.0
    for _ in range(1000):
        x = rng.normal(size=DIM)
        x *= rng.uniform(0.0, profile.support_radius * 1.2) / np.linalg.norm(x)
        jac = rot.jacobian(x)
        r = float(np.linalg.norm(x))
        target = rotation_plane.rotation_matrix(float(psi_eval(profile, r)))
        rot_dev = max(rot_dev, float(np.linalg.norm(jac - target, 2)))
        det_dev = max(det_dev, abs(float(np.linalg.det(jac)) - 1.0))
    pointwise_ok = rot_dev < eps and det_dev < 1e-9

    # Finite-difference validation, including offsets around the outer
    # seam (the inner seams sit below floating point resolution, and the
    # logarithmic tail's curvature caps the usable radii well above the
    # stencil width).
    h = 1e-7
    edge = profile.support_radius
    fd_worst = 0.0
    for r in (1e-3, 0.004, 0.4 * edge, 0.9 * edge, edge - 1e-5, edge + 1e-5):
        for _ in range(5):
            x = rng.normal(size=DIM)
            x *= r / np.linalg.norm(x)
            jac = rot.jacobian(x)
            fd = np.empty((DIM, DIM))
            for j in range(DIM):
                step = np.zeros(DIM)
                step[j] = h
                fd[:, j] = (rot.apply(x + step) - rot.apply(x - step)) / (
                    2 * h
                )
            denom = max(1.0, float(np.linalg.norm(jac)))
            fd_worst = max(fd_worst, float(np.linalg.norm(jac - fd)) / denom)
    fd_ok = fd_worst < 1e-6
    elapsed = time.perf_counter() - start

    ok = slope_ok and pointwise_ok and fd_ok and elapsed < 10.0
    criterion_reporter(
        2,
        ok,
        f"sup|t psi'| {slope_sup:.4f} < {eps}, rotation distance "
        f"{rot_dev:.2e} < {eps}, det dev {det_dev:.1e} < 1e-9, FD err "
        f"{fd_worst:.1e} < 1e-6, {elapsed:.2f}s < 10s",
    )
    assert ok


def test_criterion_3_planned_collapse(
    criterion_reporter, eigendata, auto, annuli, labeled
):
    start = time.perf_counter()
    plan = plan_center_collapse(labeled, s=0.05, annuli=annuli, grid=1024)
    final = apply_plan(np.diag(auto.diag), plan)
    elapsed = time.perf_counter() - start

    l1, l2, l3 = eigendata.values
    feasible = l2 * l3 * l3 > l3
    oracle_pair = (1.05, l2 * l3 * l3 / 1.05)
    got_pair = plan.steps[-1].target_pair
    pair_ok = (
        abs(got_pair[0] - oracle_pair[0]) < 1e-8
        and abs(got_pair[1] - oracle_pair[1]) < 1e-8
    )

    evals, vecs = np.linalg.eig(final)
    cols = [k for k in range(DIM) if abs(evals[k]) > 1.0]
    frame = np.asarray(np.real_if_close(vecs[:, cols], tol=1e6), dtype=float)
    q, _ = np.linalg.qr(frame)
    target = np.eye(DIM)[:, [3, 6, 7, 8]]
    angle = principal_angle(q, target) if q.shape[1] == 4 else math.pi
    span_ok = len(cols) == 4 and angle < 1e-8

    ok = feasible and pair_ok and span_ok and elapsed < 1.0
    criterion_reporter(
        3,
        ok,
        f"pair ({got_pair[0]:.6f}, {got_pair[1]:.6f}) within 1e-8 of "
        f"closed form, feasibility {l2 * l3 * l3:.3f} > {l3:.3f}, expanding "
        f"eigenspace angle {angle:.1e} < 1e-8, {elapsed:.2f}s < 1s",
    )
    assert ok


def _random_volume_preserving_spectrum(rng):
    k = int(rng.integers(2, 5))
    l = int(rng.integers(1, 3))
    m = int(rng.integers(1, 4))
    stable = rng.uniform(0.15, 0.7, size=k)
    center = rng.uniform(0.80, 0.98, size=l)
    unstable = rng.uniform(1.4, 6.0, size=m)
    # Normalize the product to one through the stable block, which keeps
    # every class on its side of one for these ranges.
    prod = stable.prod() * center.prod() * unstable.prod()
    stable *= prod ** (-1.0 / k)
    if stable.max() >= 0.999:
        return None
    axis = 0
    groups = []
    for vals in (stable, center, unstable):
        group = []
        for v in vals:
            group.append((float(v), axis))
            axis += 1
        groups.append(tuple(group))
    try:
        return LabeledSpectrum(
            stable=groups[0], center=groups[1], unstable=groups[2]
        )
    except ValueError:
        return None


def test_criterion_4_redistribution_target_consistency(criterion_reporter):
    rng = np.random.default_rng(2024)
    checked = 0
    literal_failures = 0
    worst_literal_residual = math.inf
    while checked < 20:
        eigs = _random_volume_preserving_spectrum(rng)
        if eigs is None:
            continue
        dim = eigs.dimension
        try:
            plan = plan_center_collapse(eigs, s=0.05, annuli=(), dim=dim)
        except PlanningError:
            continue
        if plan.mu <= 1.0:
            continue
        checked += 1
        m = len(plan.steps)
        mu = plan.mu
        c = plan.steps[0].input_pair[0]
        u_used = [s.input_pair[1] for s in plan.steps]
        acc = c * float(np.prod(u_used)) / mu**m

        final = apply_plan(eigs.diagonal_matrix(dim), plan)
        det_dev = abs(abs(np.linalg.det(final)) - 1.0)
        moduli = np.abs(np.linalg.eigvals(final))
        # Determinant-consistent reading: the accumulated modulus is the
        # total collapsed product divided by mu^m, and it beats mu^m.
        assert det_dev < 1e-9
        assert acc > mu**m
        assert abs(float(moduli.max()) - acc) < 1e-8 * max(1.0, acc)

        # Literal reading |c u_1| mu: the implied spectrum no longer
        # multiplies to the input determinant.
        literal_acc = c * u_used[0] * mu
        literal_product_residual = abs(literal_acc / acc - 1.0)
        worst_literal_residual = min(
            worst_literal_residual, literal_product_residual
        )
        if literal_product_residual > 1e-6:
            literal_failures += 1

    ok = checked == 20 and literal_failures == 20
    criterion_reporter(
        4,
        ok,
        f"det-consistent target passes on 20/20 randomized spectra; "
        f"literal reading fails the det check on {literal_failures}/20 "
        f"(closest residual {worst_literal_residual:.3e})",
    )
    assert ok


def test_criterion_5_uniform_domination_and_robustness(
    criterion_reporter, auto, annuli, collapse_angle, rotation_plane
):
    start = time.perf_counter()
    witness = find_domination_exponent(
        auto.diag,
        rotation_plane,
        collapse_angle,
        annuli,
        n_max=64,
        grid=1024,
        margin_floor=1e-6,
    )
    # The grid includes theta = 0, i.e. the undeformed power B^n; check
    # it explicitly as well.
    diag = np.asarray(auto.diag, dtype=float)
    for ann in annuli:
        margins = _kernels.grid_domination_margins(
            diag,
            np.array([0.0]),
            witness.exponent,
            ann.beta_q,
            rotation_plane.axes,
            8.0,
            1e-12,
        )
        assert margins[0, 0] > 1e-6

    report = robustness_radius(
        auto.diag,
        rotation_plane,
        collapse_angle,
        annuli,
        n=witness.exponent,
        grid=256,
        trials=1000,
        seed=0,
    )
    elapsed = time.perf_counter() - start

    ok = (
        witness.exponent <= 64
        and all(m >= 1e-6 for m in witness.worst_margins)
        and report.delta > 0
        and report.trials == 1000
        and report.failures == 0
        and elapsed < 120.0
    )
    criterion_reporter(
        5,
        ok,
        f"uniform exponent n = {witness.exponent} <= 64, worst margin "
        f"{min(witness.worst_margins):.4f} >= 1e-6, robustness radius "
        f"{report.delta:.3e} > 0 with 0/1000 trial failures, "
        f"{elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_6_rates_and_bunching(
    criterion_reporter, eigendata, auto, lattice, deformed, plane_axes
):
    start = time.perf_counter()
    l1, l2, l3 = eigendata.values
    report = bunching_report(
        deformed, (l1, l2, l3), plane_axes, n=2, sample_count=512, seed=0
    )
    lin = DeformedMap(auto, lattice=lattice)
    base = bunching_report(
        lin, (l1, l2, l3), plane_axes, n=2, sample_count=512, seed=0
    )
    elapsed = time.perf_counter() - start

    nu_err = abs(base.nu - l1)
    nu_hat_err = abs(base.nu_hat - 1.0 / l3)
    ok = (
        report.all_bullets_hold
        and report.center_bunched
        and report.bunching_margin > 0
        and nu_err < 1e-6
        and nu_hat_err < 1e-6
        and elapsed < 120.0
    )
    criterion_reporter(
        6,
        ok,
        f"four rate bullets hold at 512 samples, max(nu, nu-hat) "
        f"{max(report.nu, report.nu_hat):.4f} < gamma gamma-hat "
        f"{report.gamma * report.gamma_hat:.4f} (margin "
        f"{report.bunching_margin:.3f}), undeformed nu/nu-hat reproduce "
        f"{l1:.6f}/{1.0 / l3:.6f} within 1e-6, {elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_7_support_sweep(
    criterion_reporter, auto, lattice, collapse_angle, rotation_plane
):
    start = time.perf_counter()

    ladder = [0.05, 6.25e-3, 7.8125e-4, 9.765625e-5, 1.220703125e-5]
    maps = [
        DeformedMap(
            auto=auto,
            rotation=LocalRotationMap(
                profile=make_profile(collapse_angle, scale),
                plane=rotation_plane,
            ),
            lattice=lattice,
            chart_radius=0.3,
        )
        for scale in ladder
    ]
    points = splitting_deviation_sweep(
        maps + [DeformedMap(auto, lattice=lattice)],
        ladder + [0.0],
        probe_radius=0.1,
        probe_count=24,
        seed=1,
    )
    elapsed = time.perf_counter() - start

    devs = [p.deviation for p in points[:-1]]
    control = points[-1].deviation
    decreasing = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    ok = (
        decreasing
        and devs[-1] < 1e-3
        and control == 0.0
        and elapsed < 300.0
    )
    criterion_reporter(
        7,
        ok,
        f"5-point ladder strictly decreasing ({devs[0]:.2e} -> "
        f"{devs[-1]:.2e} < 1e-3 rad), zero-radius control exactly 0, "
        f"{elapsed:.1f}s < 300s",
    )
    assert ok


def test_criterion_8_structural_invariants(
    criterion_reporter, lattice, auto, deformed
):
    rng = np.random.default_rng(8)

    # Group law associativity at 1e-12 over 10^3 random triples.
    assoc_worst = 0.0
    for _ in range(1000):
        u, v, w = rng.uniform(-1.0, 1.0, size=(3, DIM))
        left = bch_multiply(bch_multiply(u, v), w)
        right = bch_multiply(u, bch_multiply(v, w))
        assoc_worst = max(assoc_worst, float(np.max(np.abs(left - right))))
    assoc_ok = assoc_worst < 1e-12

    # Lattice closure under the group law and under the automorphism.
    closure = lattice.bch_closure_residual()
    integrality = lattice.automorphism_integrality_residual(auto)
    lattice_ok = closure < 1e-9 and integrality < 1e-9

    # Cocycle multiplicativity is exact by construction.
    x = np.full(DIM, 0.004)
    total = cocycle_product(deformed, x, 6)
    first = cocycle_product(deformed, x, 2)
    second = cocycle_product(deformed, first.end, 4)
    cocycle_ok = np.array_equal((second @ first).matrix, total.matrix)

    # Extracted splitting is derivative-invariant below 1e-8.
    est = extract_splitting(
        deformed,
        x,
        slow_axes=STRONG_STABLE_AXES,
        fast_axes=tuple(CENTER_AXES) + tuple(EXPANDING_AXES),
    )
    nxt, jac = deformed.step_with_jacobian(x)
    est_next = extract_splitting(
        deformed,
        nxt,
        slow_axes=STRONG_STABLE_AXES,
        fast_axes=tuple(CENTER_AXES) + tuple(EXPANDING_AXES),
    )
    pushed, _ = np.linalg.qr(jac @ est.fast_frame)
    invariance = principal_angle(pushed, est_next.fast_frame)
    invariance_ok = invariance < 1e-8

    # Splitting distance behaves like a metric on sampled frame triples.
    metric_ok = True
    for _ in range(50):
        frames = []
        for _ in range(3):
            qs = []
            for d in (4, 2, 3):
                q, _ = np.linalg.qr(rng.normal(size=(DIM, d)))
                qs.append(q)
            frames.append(tuple(qs))
        a, b, c = frames
        dab = splitting_distance(a, b)
        metric_ok &= splitting_distance(a, a) < 1e-12
        metric_ok &= abs(dab - splitting_distance(b, a)) < 1e-12
        metric_ok &= dab <= (
            splitting_distance(a, c) + splitting_distance(c, b) + 1e-10
        )

    ok = assoc_ok and lattice_ok and cocycle_ok and invariance_ok and metric_ok
    criterion_reporter(
        8,
        ok,
        f"group associativity {assoc_worst:.1e} < 1e-12 on 10^3 triples, "
        f"lattice residuals {max(closure, integrality):.1e} < 1e-9, "
        f"cocycle products exact, splitting invariance {invariance:.1e} "
        f"< 1e-8, metric axioms hold",
    )
    assert ok


def test_criterion_9_deterministic_reports(criterion_reporter, pipeline_reports):
    norm_a, norm_b = pipeline_reports["normalized"]
    raw_a, raw_b = pipeline_reports["serialized"]
    diff = [
        (la, lb)
        for la, lb in zip(raw_a.splitlines(), raw_b.splitlines())
        if la != lb
    ]
    only_timestamp = all(
        '"timestamp"' in la and '"timestamp"' in lb for la, lb in diff
    )
    ok = (
        norm_a == norm_b
        and len(raw_a.splitlines()) == len(raw_b.splitlines())
        and len(diff) <= 1
        and only_timestamp
        and pipeline_reports["reports"][0]["verdict"] == "PASS"
    )
    criterion_reporter(
        9,
        ok,
        f"repeated default runs byte-identical modulo the timestamp "
        f"field ({len(diff)} differing line)",
    )
    assert ok
