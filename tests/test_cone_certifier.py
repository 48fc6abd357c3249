"""Tests for cone certificates, splitting extraction, and rate reports."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcert import cone_certifier as cc
from nilcert._kernels import containment_margin, qr_product_forward, qr_product_pullback
from nilcert.cone_certifier import (
    CENTER_AXES,
    CertificationError,
    CocycleProduct,
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
    subspace_intersection,
)
from nilcert.deformation import DeformedMap, LocalRotationMap, RotationPlane, make_profile
from nilcert.nilmanifold import DIM, AutomorphismSpec, LatticeSpec
from nilcert.pipeline_cli import PipelineConfig


def test_domination_exponent_for_default_construction(
    auto, annuli, collapse_angle
):
    plane = RotationPlane(3, 8)
    witness = find_domination_exponent(
        auto.diag, plane, collapse_angle, annuli, n_max=8, grid=256
    )
    assert witness.exponent == 2
    assert len(witness.thresholds) == 2
    assert all(m > 1e-6 for m in witness.worst_margins)
    # History records the failed n=1 attempt for the lower threshold.
    assert witness.history[0][0] == 1.0
    assert witness.history[0][1] < 0
    assert "n = 2" in witness.describe()
    # The lower-annulus margin is the same at every grid angle, so the tie
    # rule puts its worst angle at theta = 0.
    assert witness.worst_thetas[0] == 0.0
    assert witness.lambda_cap == 8.0
    assert witness.lambda_at_cap == (False, False)


def test_domination_margins_match_reference_values(auto, annuli, collapse_angle):
    plane = RotationPlane(3, 8)
    witness = find_domination_exponent(
        auto.diag, plane, collapse_angle, annuli, n_max=4, grid=1024
    )
    # Reference margins computed by an independent dense-eigenvalue
    # sweep of the normalized two-sided cone condition.  The collapse
    # angle enters the worst-margin location, so agreement is limited by
    # its bisection tolerance amplified through the squared cocycle.
    assert witness.history[0][1] == pytest.approx(-0.086260141969, abs=1e-6)
    assert witness.history[0][2] == pytest.approx(2.771895682054, abs=1e-6)
    assert witness.worst_margins[0] == pytest.approx(0.480711566337, abs=1e-6)
    assert witness.worst_margins[1] == pytest.approx(14.663600029376, abs=1e-5)


def test_domination_exhaustion_raises_with_history(auto, annuli, collapse_angle):
    plane = RotationPlane(3, 8)
    with pytest.raises(CertificationError) as err:
        find_domination_exponent(
            auto.diag, plane, collapse_angle, annuli, n_max=1, grid=256
        )
    assert getattr(err.value, "history", None)
    assert "n_max=1" in str(err.value)


def test_robustness_radius_positive_with_zero_failures(
    auto, annuli, collapse_angle
):
    plane = RotationPlane(3, 8)
    report = robustness_radius(
        auto.diag, plane, collapse_angle, annuli, n=2, grid=128, trials=100
    )
    assert report.delta > 0
    assert report.failures == 0
    assert len(report.per_threshold) == 2
    assert report.delta <= min(report.per_threshold)
    assert report.fallbacks == 0


def test_batched_cholesky_decides_trials_as_the_full_search(auto, annuli, collapse_angle):
    # At a million times the certified radius some trials fail, and some
    # Cholesky tests fail on trials that the full search still passes.
    plane = RotationPlane(3, 8)
    n, trials, safety = 2, 200, 1e6
    report = robustness_radius(
        auto.diag, plane, collapse_angle, annuli, n=n, grid=128, trials=trials, safety=safety
    )
    rng = np.random.default_rng(0)
    diag = np.asarray(auto.diag, dtype=float)
    failures = 0
    for _ in range(trials):
        theta = float(rng.uniform(0.0, collapse_angle))
        e = rng.normal(size=(DIM, DIM))
        e *= safety * report.delta / np.linalg.norm(e, 2)
        m = np.linalg.matrix_power(plane.rotation_matrix(theta) * diag, n) + e
        for ann in annuli:
            mt = m / ann.beta_q**n
            mi = np.linalg.inv(mt)
            s_tgt = mt.T @ mt - np.eye(DIM)
            s_img = np.eye(DIM) - mi.T @ mi
            if containment_margin(s_img, s_tgt, 8.0, 1e-12)[0] <= 0.0:
                failures += 1
                break
    assert 0 < failures < trials
    assert report.failures == failures
    assert report.fallbacks > failures


def test_cocycle_products_compose_exactly(deformed):
    x = np.full(DIM, 0.004)
    total = cocycle_product(deformed, x, 6)
    first = cocycle_product(deformed, x, 2)
    mid_point = first.end
    assert np.array_equal(mid_point, deformed.step(deformed.step(x)))
    second = cocycle_product(deformed, mid_point, 4)
    composed = second @ first
    assert isinstance(composed, CocycleProduct)
    assert np.array_equal(composed.matrix, total.matrix)
    assert composed.steps == 6
    # Factors are byte-identical, not merely close.
    for a, b in zip(composed.factors, total.factors):
        assert np.array_equal(a, b)


def test_cocycle_composition_requires_matching_endpoints(deformed):
    x = np.full(DIM, 0.004)
    first = cocycle_product(deformed, x, 2)
    wrong = cocycle_product(deformed, x + 0.1, 2)
    with pytest.raises(ValueError):
        wrong @ first


def test_principal_angle_basic_properties():
    rng = np.random.default_rng(1)
    q1, _ = np.linalg.qr(rng.normal(size=(9, 4)))
    assert principal_angle(q1, q1) < 1e-12
    # Coordinate frames at right angles.
    e1 = np.eye(9)[:, :2]
    e2 = np.eye(9)[:, 2:4]
    assert principal_angle(e1, e2) == pytest.approx(np.pi / 2)
    # Symmetry.
    q2, _ = np.linalg.qr(rng.normal(size=(9, 4)))
    assert principal_angle(q1, q2) == pytest.approx(
        principal_angle(q2, q1), abs=1e-12
    )


@given(st.integers(0, 2**31 - 1))
def test_splitting_distance_metric_axioms(seed):
    rng = np.random.default_rng(seed)

    def frames():
        qs = []
        for d in (4, 2, 3):
            q, _ = np.linalg.qr(rng.normal(size=(9, d)))
            qs.append(q)
        return tuple(qs)

    a, b, c = frames(), frames(), frames()
    da_b = splitting_distance(a, b)
    assert splitting_distance(a, a) < 1e-12
    assert da_b == pytest.approx(splitting_distance(b, a), abs=1e-12)
    assert da_b <= splitting_distance(a, c) + splitting_distance(c, b) + 1e-10


def test_subspace_intersection_recovers_common_plane():
    e = np.eye(9)
    q1 = e[:, [3, 4, 6, 7, 8]]
    q2 = e[:, [0, 1, 2, 5, 3, 4]]
    inter = subspace_intersection(q1, q2, 2)
    assert inter.shape == (9, 2)
    assert principal_angle(inter, e[:, [3, 4]]) < 1e-12


def test_extracted_splitting_converges_and_is_invariant(deformed):
    x = np.full(DIM, 0.006)
    est = extract_splitting(
        deformed,
        x,
        slow_axes=STRONG_STABLE_AXES,
        fast_axes=tuple(CENTER_AXES) + tuple(EXPANDING_AXES),
    )
    assert est.converged
    assert (est.slow_frame.shape, est.fast_frame.shape) == ((DIM, 4), (DIM, 5))
    assert est.gap < 1e-10
    # Derivative invariance: Dg(x) E(x) = E(g x) as subspaces.
    nxt, jac = deformed.step_with_jacobian(x)
    est_next = extract_splitting(
        deformed,
        nxt,
        slow_axes=STRONG_STABLE_AXES,
        fast_axes=tuple(CENTER_AXES) + tuple(EXPANDING_AXES),
    )
    pushed, _ = np.linalg.qr(jac @ est.fast_frame)
    assert principal_angle(pushed, est_next.fast_frame) < 1e-8


def _stack_points(deformed, count=6, seed=9):
    """Points from deep inside to outside the support ball, one per row."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, DIM))
    radii = deformed.rotation.support_radius * np.geomspace(1e-12, 20.0, count)
    return x * (radii / np.linalg.norm(x, axis=1))[:, None]


def _same(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_stacked_extraction_matches_points_extracted_alone(deformed):
    x = _stack_points(deformed)
    axes = dict(slow_axes=STRONG_STABLE_AXES + CENTER_AXES, fast_axes=EXPANDING_AXES)
    # One round at a fixed depth.
    est = extract_splitting(deformed, x, **axes, k_start=60, k_max=60)
    assert est.fast_frame.shape == (6, DIM, 3) and est.slow_frame.shape == (6, DIM, 6)
    assert (est.steps_used, est.gap, est.converged) == (60, math.inf, False)
    for i, xi in enumerate(x):
        alone = extract_splitting(deformed, xi, **axes, k_start=60, k_max=60)
        assert _same(est.fast_frame[i], alone.fast_frame)
        assert _same(est.slow_frame[i], alone.slow_frame)
    # Deepening until the largest increment over the stack is below tol.
    # The points alone converge at different depths; the stack stops at
    # the deepest, every row equals its point extracted alone at that
    # depth, and the stack's gap is the largest of the points' gaps there.
    schedule = dict(k_start=2, k_step=1, tol=1e-10)
    est = extract_splitting(deformed, x, **axes, **schedule)
    assert est.converged and est.gap < 1e-10
    depths = [extract_splitting(deformed, xi, **axes, **schedule).steps_used for xi in x]
    assert len(set(depths)) > 1 and est.steps_used == max(depths)
    gaps = []
    for i, xi in enumerate(x):
        alone = extract_splitting(
            deformed, xi, **axes, k_start=est.steps_used - 1, k_max=est.steps_used,
            k_step=1, tol=0.0,
        )
        assert alone.steps_used == est.steps_used
        assert _same(est.fast_frame[i], alone.fast_frame)
        assert _same(est.slow_frame[i], alone.slow_frame)
        gaps.append(alone.gap)
    assert est.gap == max(gaps) > 0.0


@pytest.mark.parametrize("deformed_map", [True, False])
def test_stacked_cocycle_product_matches_single_points(
    deformed, auto, lattice, deformed_map
):
    dyn = deformed if deformed_map else DeformedMap(auto, lattice=lattice)
    x = _stack_points(deformed)
    prod = cocycle_product(dyn, x, 4)
    assert prod.matrix.shape == (6, DIM, DIM) and prod.steps == 4
    for i, xi in enumerate(x):
        alone = cocycle_product(dyn, xi, 4)
        assert _same(prod.matrix[i], alone.matrix)
        assert _same(prod.end[i], alone.end)
        for f, g in zip(prod.factors, alone.factors):
            assert _same(f[i], g)


def test_stacked_principal_angle_matches_pairs():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 4, 5):
        q1 = np.linalg.qr(rng.normal(size=(200, DIM, k)))[0]
        q2 = np.linalg.qr(rng.normal(size=(200, DIM, k)))[0]
        # Near-equal frames: tiny perturbations, re-orthonormalized.
        scale = np.geomspace(1e-16, 1e-3, 200)[:, None, None]
        q3 = np.linalg.qr(q1 + scale * rng.normal(size=q1.shape))[0]
        for a, b in ((q1, q2), (q1, q3), (q3, q1), (q1, q1)):
            angles = principal_angle(a, b)
            assert angles.shape == (200,)
            for i in range(200):
                assert angles[i] == principal_angle(a[i], b[i])
        # One frame against a stack.
        angles = principal_angle(q1, q2[0])
        assert all(angles[i] == principal_angle(q1[i], q2[0]) for i in range(200))
    with pytest.raises(ValueError):
        principal_angle(q1, q2[..., :2])


def test_linear_dynamics_matches_automorphism(auto, lattice):
    lin = DeformedMap(auto, lattice=lattice)
    x = np.full(DIM, 0.003)
    stepped = lin.step(x)
    assert np.allclose(stepped, lattice.reduce(auto.apply(x)), atol=0)
    nxt, p = lin.step_with_point(x)
    assert np.array_equal(nxt, stepped) and np.array_equal(p, nxt)
    assert np.array_equal(lin.frame_jacobian(p), auto.matrix)
    end = cocycle_product(lin, x, 3).end
    assert end.shape == (DIM,)
    assert np.array_equal(end, lin.step(lin.step(nxt)))
    back, p = lin.step_inverse_with_point(nxt)
    assert np.array_equal(back, lattice.reduce(auto.apply_inverse(nxt)))
    # As the deformed map's (x, z) with the identity rotation: z = y.
    assert np.array_equal(p, nxt)
    assert np.array_equal(lin.frame_jacobian(p), auto.matrix)


def test_rates_transport_two_nested_frames_per_sample(
    deformed, eigendata, plane_axes, monkeypatch
):
    # Column-nested QR transport: for every sample the unstable and stable
    # frames are the leading columns of its upper and lower frames, bit for
    # bit, so one report needs two batched transports per extraction round,
    # not two per sample.  The default depth rule runs rounds of 15 and 30
    # steps here.
    calls = []

    def recording(transport):
        def run(points, jacobian, q0):
            calls.append((transport, points, jacobian, q0, transport(points, jacobian, q0)))
            return calls[-1][-1]

        return run

    monkeypatch.setattr(cc, "qr_product_forward", recording(qr_product_forward))
    monkeypatch.setattr(cc, "qr_product_pullback", recording(qr_product_pullback))
    report = bunching_report(
        deformed, eigendata.values, plane_axes, n=2, sample_count=8, seed=3
    )
    assert (report.extraction.steps_used, report.extraction.converged) == (30, True)
    assert [(c[0], len(c[1])) for c in calls] == [
        (qr_product_forward, 15),
        (qr_product_pullback, 15),
        (qr_product_forward, 30),
        (qr_product_pullback, 30),
    ]
    for transport, points, jacobian, q0, q in calls:
        lead = 3 if transport is qr_product_forward else 4
        assert points.shape[1:] == (report.sample_count, DIM)
        assert q.shape == (report.sample_count,) + q0.shape
        for i in range(report.sample_count):
            alone = transport(points[:, i], jacobian, q0[:, :lead])
            assert np.array_equal(q[i, :, :lead], alone)


def test_bunching_report_small_sample(deformed, eigendata, plane_axes):
    report = bunching_report(
        deformed, eigendata.values, plane_axes, n=2, sample_count=96, seed=0
    )
    assert report.all_bullets_hold
    assert report.center_bunched
    assert report.bunching_margin > 0.3
    assert report.nu < 1.0 and report.nu_hat < 1.0


def test_undeformed_rates_reproduce_spectrum(auto, lattice, eigendata, plane_axes):
    l1, _, l3 = eigendata.values
    lin = DeformedMap(auto, lattice=lattice)
    report = bunching_report(
        lin, eigendata.values, plane_axes, n=2, sample_count=96, seed=0
    )
    assert report.nu == pytest.approx(l1, abs=1e-9)
    assert report.nu_hat == pytest.approx(1.0 / l3, abs=1e-9)


# Oracles that walk and transport each point alone, one 9x9 Jacobian and
# one 2-D QR or solve per step, as the batched walks must reproduce.


def _qr_pos(a):
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _alone(dyn, x, steps, seed_b, seed_f, n=0):
    """Frames pushed along the backward orbit and pulled back along the
    forward orbit of the single point x, and the forward Jacobians."""
    back, fwd = [], []
    y = x
    for _ in range(steps):
        y, p = dyn.step_inverse_with_point(y)
        back.append(dyn.frame_jacobian(p))
    y = x
    for _ in range(max(steps, n)):
        y, p = dyn.step_with_point(y)
        fwd.append(dyn.frame_jacobian(p))
    q_b = seed_b.copy()
    for jac in back[::-1]:
        q_b = _qr_pos(jac @ q_b)
    q_f = seed_f.copy()
    for jac in fwd[:steps][::-1]:
        q_f = _qr_pos(np.linalg.solve(jac, q_f))
    return q_b, q_f, fwd


def _sweep_maps(auto, lattice, plan, radii):
    step = plan.steps[-1]
    return [
        DeformedMap(
            auto=auto,
            rotation=LocalRotationMap(make_profile(step.angle, scale), step.plane),
            lattice=lattice,
        )
        if scale
        else DeformedMap(auto, lattice=lattice)
        for scale in radii
    ]


def test_batched_sweep_matches_points_walked_alone(auto, lattice, plan):
    radii = PipelineConfig().sweep_supports + (0.0,)
    maps = _sweep_maps(auto, lattice, plan, radii)
    sweep = splitting_deviation_sweep(maps, radii, probe_count=6, seed=2)
    steps = sweep[0].extraction.steps_used
    assert all(p.extraction == sweep[0].extraction for p in sweep)
    assert sweep[0].extraction.converged
    dirs = cc._probe_directions(np.random.default_rng(2), 6)
    u_ref = cc._axes_frame(EXPANDING_AXES)
    s_ref = cc._axes_frame(STRONG_STABLE_AXES)
    for dyn, radius, point in zip(maps, radii, sweep):
        worst = 0.0
        for v in dirs:
            q_u, q_s, _ = _alone(dyn, 0.1 * v, steps, u_ref, s_ref)
            worst = max(worst, principal_angle(q_u, u_ref), principal_angle(q_s, s_ref))
        assert (point.radius, point.probes) == (radius, 6)
        assert point.deviation == worst
    assert sweep[0].deviation > 0.0 and sweep[-1].deviation == 0.0


@pytest.mark.parametrize("seed", [1, 6])
def test_single_probe_sweep_strictly_decreases(auto, lattice, plan, seed):
    # One probe is one pure-expanding direction, so the deformation shows.
    (v,) = cc._probe_directions(np.random.default_rng(seed), 1)
    assert np.count_nonzero(v[list(EXPANDING_AXES)]) == len(EXPANDING_AXES) == np.count_nonzero(v)
    radii = PipelineConfig().sweep_supports + (0.0,)
    sweep = splitting_deviation_sweep(
        _sweep_maps(auto, lattice, plan, radii), radii, probe_count=1, seed=seed
    )
    ladder = [p.deviation for p in sweep[:-1]]
    assert all(a > b for a, b in zip(ladder, ladder[1:])) and ladder[-1] > 0.0
    assert sweep[-1].deviation == 0.0 and sweep[0].extraction.converged


@pytest.mark.parametrize("with_lattice", [True, False])
def test_stacked_maps_step_each_block_as_its_own_map(auto, lattice, plan, with_lattice):
    lat = lattice if with_lattice else None
    step = plan.steps[-1]
    wide, narrow = (
        DeformedMap(
            auto=auto,
            rotation=LocalRotationMap(make_profile(step.angle, eps), step.plane),
            lattice=lat,
        )
        for eps in (0.05, 1e-4)
    )
    # Blocks of unequal size, an empty one, and an undeformed one; the
    # deformed blocks have rows inside and outside their support balls.
    maps = (wide, DeformedMap(auto, lattice=lat), wide, narrow)
    counts = (5, 3, 0, 2)
    x = np.concatenate(
        [_stack_points(wide, 5), _stack_points(wide, 3, seed=10), _stack_points(narrow, 2)]
    )
    for m, rows in ((wide, x[:5]), (narrow, x[8:])):
        radii = np.linalg.norm(rows, axis=1)
        assert radii.min() < m.rotation.support_radius < radii.max()
    stack = cc._StackedMaps(maps, counts)
    ends = np.cumsum(counts)
    blocks = [slice(e - c, e) for e, c in zip(ends, counts)]
    for name in ("step_with_point", "step_inverse_with_point"):
        y, alone = x, [x[b] for b in blocks]
        for _ in range(4):
            y, p = getattr(stack, name)(y)
            jac = stack.frame_jacobian(p)
            assert y.shape == p.shape == x.shape and jac.shape == x.shape + (DIM,)
            for i, (m, b) in enumerate(zip(maps, blocks)):
                alone[i], q = getattr(m, name)(alone[i])
                assert _same(y[b], alone[i]) and _same(p[b], q)
                assert _same(jac[b], m.frame_jacobian(q))


def test_stacked_maps_require_one_automorphism_and_one_lattice(auto, lattice, eigendata):
    lin = DeformedMap(auto, lattice=lattice)
    for other in (
        DeformedMap(AutomorphismSpec.from_eigendata(eigendata), lattice=lattice),
        DeformedMap(auto, lattice=LatticeSpec.from_eigendata(eigendata)),
        DeformedMap(auto),
    ):
        with pytest.raises(ValueError):
            cc._StackedMaps((lin, other), (1, 1))
    with pytest.raises(ValueError):
        cc._StackedMaps((lin, lin), (1,))


@pytest.mark.parametrize("deformed_map", [True, False])
def test_batched_rates_match_points_walked_alone(
    deformed, auto, lattice, eigendata, plane_axes, deformed_map
):
    dyn = deformed if deformed_map else DeformedMap(auto, lattice=lattice)
    report = bunching_report(
        dyn, eigendata.values, plane_axes, n=3, sample_count=16, seed=4
    )
    points = cc._rate_sample_points(
        np.random.default_rng(4), dyn, 16, 0.02, 0.1, plane_axes
    )
    upper_seed = cc._axes_frame(EXPANDING_AXES + CENTER_AXES)
    lower_seed = cc._axes_frame(STRONG_STABLE_AXES + CENTER_AXES)
    s_max = c_hi = -np.inf
    c_lo = u_min = np.inf
    for x in points:
        q_upper, q_lower, fwd = _alone(dyn, x, 80, upper_seed, lower_seed, n=3)
        center = subspace_intersection(q_upper, q_lower, len(CENTER_AXES))
        t = np.eye(DIM)
        for f in fwd[:3]:
            t = f @ t
        s_max = max(s_max, np.linalg.svd(t @ q_lower[:, :4], compute_uv=False)[0])
        sv_c = np.linalg.svd(t @ center, compute_uv=False)
        c_lo, c_hi = min(c_lo, sv_c[-1]), max(c_hi, sv_c[0])
        u_min = min(u_min, np.linalg.svd(t @ q_upper[:, :3], compute_uv=False)[-1])
    assert report.sample_count == 16
    assert (report.s_max, report.c_lo, report.c_hi, report.u_min) == (
        s_max, c_lo, c_hi, u_min
    )


def _ref_rate_sample_points(rng, dyn, count, inner_scale, outer_radius, plane_axes):
    """The rate sample points with every funnel orbit stepped one point
    at a time."""
    points = []
    for _ in range(max(4, count // 4)):
        d = rng.normal(size=DIM)
        points.append(outer_radius * d / np.linalg.norm(d))
    depths = [1.0, 0.3, 1e-2, 1e-5, 1e-8, 1e-12, 1e-18]
    while len(points) < count:
        for dep in depths:
            d = rng.normal(size=DIM)
            x = inner_scale * dep * d / np.linalg.norm(d)
            points.append(x.copy())
            for _ in range(12):
                x = dyn.step(x)
                points.append(x.copy())
                if np.linalg.norm(x) > 3 * outer_radius:
                    break
            if len(points) >= count:
                break
        for dep in (0.9, 0.5, 0.1, 1e-3, 1e-8, 1e-15):
            x = np.zeros(DIM)
            x[plane_axes[0]] = inner_scale * dep / math.sqrt(2.0)
            x[plane_axes[1]] = inner_scale * dep / math.sqrt(2.0)
            points.append(x)
            if len(points) >= count:
                break
    return points[:count]


@pytest.mark.parametrize("count", [37, 512])
@pytest.mark.parametrize("deformed_map", [True, False])
def test_batched_funnel_orbits_match_points_stepped_alone(
    deformed, auto, lattice, plane_axes, deformed_map, count
):
    dyn = deformed if deformed_map else DeformedMap(auto, lattice=lattice)
    args = (dyn, count, 0.02, 0.1, plane_axes)
    points = cc._rate_sample_points(np.random.default_rng(7), *args)
    ref = _ref_rate_sample_points(np.random.default_rng(7), *args)
    assert len(points) == len(ref) == count
    for p, q in zip(points, ref):
        assert np.array_equal(p, q) and np.array_equal(np.signbit(p), np.signbit(q))
    if count == 512:  # some orbits end early, beyond three outer radii
        assert max(np.linalg.norm(p) for p in ref) > 0.3
