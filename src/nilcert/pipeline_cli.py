"""End-to-end certification pipeline and its command-line interface.

The pipeline chains the library stages — integer-matrix spectral
certification, nilmanifold lattice construction, rotation planning,
local deformation, cone-field domination, rate measurement, and the
support-radius sweep — into a single reproducible run driven by a JSON
config.  The first three stages build the construction once
(:func:`build_construction`); the later stages run only on a plan that
passed.  Results are written as a versioned, machine-readable JSON
report plus headered CSV curve files suitable for plotting; reports are
deterministic for a fixed config and seed (byte-identical up to the
timestamp field).

Exit codes: 0 all checks pass, 2 invalid input (config or matrix; among
configs, annuli not on either side of one and a surplus with
``1 + surplus == 1``), 3 certification failure, 4 internal error, 141
standard output closed before the command finished writing (as in
``nilcert plan | head -1``; 128 + SIGPIPE, the code a shell reports for
a process that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .algebraic_core import (
    CHAIN_RELATIONS,
    EigenData,
    IntegerMatrixSpec,
    RootIsolationError,
    char_poly,
    check_irreducible,
    verify_eigenvalue_condition,
)
from .cone_certifier import (
    CertificationError,
    DominationWitness,
    EXPANDING_AXES,
    LinearDynamics,
    bunching_report,
    find_domination_exponent,
    principal_angle,
    robustness_radius,
    splitting_deviation_sweep,
)
from .deformation import (
    DeformationError,
    DeformedMap,
    LocalRotationMap,
    ProfileError,
    make_profile,
    psi_eval,
    psi_slope,
)
from .nilmanifold import AutomorphismSpec, DIM, LatticeSpec
from .spectral_planner import (
    AnnulusSpec,
    LabeledSpectrum,
    PlanStep,
    PlanningError,
    apply_plan,
    plan_center_collapse,
)

__all__ = [
    "ConfigError",
    "PipelineConfig",
    "cmd_verify_matrix",
    "cmd_certify",
    "cmd_sweep_support",
    "cmd_plan",
    "cmd_report",
    "main",
]

EXIT_PASS = 0
EXIT_INVALID_INPUT = 2
EXIT_CERTIFICATION_FAILURE = 3
EXIT_INTERNAL_ERROR = 4
EXIT_BROKEN_PIPE = 141

REPORT_SCHEMA_VERSION = "3"


class ConfigError(ValueError):
    """Raised for malformed or inconsistent pipeline configuration."""


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass(frozen=True)
class PipelineConfig:
    """All tunable constants of a pipeline run, with documented defaults.

    Every constant that the certified construction leaves open (target
    surplus, grid sizes, slacks, sample counts, probe geometry) lives
    here so a report's echoed config fully determines a re-run.
    """

    matrix: tuple[tuple[int, ...], ...] = ((2, -3, 1), (-3, 6, -2), (1, -2, 1))
    surplus: float = 0.05  # target small expanding modulus is 1 + surplus
    support_eps: float = 0.05  # profile slope budget; support radius is eps/2
    rate_eps: float = 0.05  # slack in the four rate-bullet bounds
    theta_grid: int = 1024
    sample_count: int = 512
    n_max: int = 64
    margin_floor: float = 1e-6
    root_tol: float = 1e-12
    chart_radius: float = 0.3
    probe_radius: float = 0.1
    probe_count: int = 24
    inner_scale: float = 0.02
    extraction_steps: int = 80
    sweep_supports: tuple[float, ...] = (
        0.05,
        6.25e-3,
        7.8125e-4,
        9.765625e-5,
        1.220703125e-5,
    )
    mc_trials: int = 1000
    robustness_grid: int = 256
    seed: int = 0
    out_dir: str = "."
    annuli: Optional[tuple[tuple[float, float], tuple[float, float]]] = None

    def __post_init__(self) -> None:
        if not all(_is_int(v) for row in self.matrix for v in row):
            raise ConfigError(f"matrix entries must be integers: {self.matrix}")
        for name in (
            "surplus",
            "support_eps",
            "rate_eps",
            "margin_floor",
            "root_tol",
            "chart_radius",
            "probe_radius",
            "inner_scale",
        ):
            value = getattr(self, name)
            if not (_is_finite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive")
        if 1.0 + self.surplus == 1.0:
            raise ConfigError(
                f"surplus {self.surplus!r} vanishes against one: the target "
                "modulus 1 + surplus must exceed one in floating point"
            )
        for name in ("theta_grid", "robustness_grid"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 100):
                raise ConfigError(f"{name} must be an integer of at least 100")
        for name in ("sample_count", "n_max", "probe_count", "mc_trials",
                     "extraction_steps"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be a positive integer")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if not self.sweep_supports or not all(
            _is_finite(r) and r > 0 for r in self.sweep_supports
        ):
            raise ConfigError("sweep_supports must be finite positive values")
        if self.annuli is not None:
            if len(self.annuli) != 2:
                raise ConfigError(
                    "annuli must be exactly two [alpha, beta] pairs (lower, "
                    f"upper), got {len(self.annuli)}"
                )
            for pair in self.annuli:
                if len(pair) != 2 or not all(_is_finite(v) for v in pair):
                    raise ConfigError(f"bad annulus {pair}: need two finite values")
                try:
                    AnnulusSpec(*pair)  # validates 0 < alpha < beta
                except ValueError as exc:
                    raise ConfigError(f"bad annulus {pair}: {exc}") from exc
            # Stable moduli lie below the lower annulus and unstable ones
            # above the upper, so the annuli must separate them at one.
            if not self.annuli[0][1] < 1.0 < self.annuli[1][0]:
                raise ConfigError(
                    "annuli must lie on either side of one (lower beta < 1 < "
                    f"upper alpha), got {[list(p) for p in self.annuli]}"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "matrix" in kwargs:
            rows = kwargs["matrix"]
            try:
                kwargs["matrix"] = tuple(tuple(row) for row in rows)
            except TypeError as exc:
                raise ConfigError(f"matrix must be integer rows: {exc}") from exc
        try:
            if "sweep_supports" in kwargs:
                kwargs["sweep_supports"] = tuple(
                    float(r) for r in kwargs["sweep_supports"]
                )
            if "annuli" in kwargs and kwargs["annuli"] is not None:
                kwargs["annuli"] = tuple(
                    tuple(float(v) for v in pair) for pair in kwargs["annuli"]
                )
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"sweep_supports and annuli must be numbers: {exc}"
            ) from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            raw = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    def replace(self, **kwargs) -> "PipelineConfig":
        return dataclasses.replace(self, **kwargs)

    def echo_dict(self) -> dict:
        """Config as a JSON-ready dict; the output directory is normalized
        so reports are location-independent and byte-reproducible."""
        d = dataclasses.asdict(self)
        d["matrix"] = [list(r) for r in self.matrix]
        d["sweep_supports"] = list(self.sweep_supports)
        d["annuli"] = (
            None if self.annuli is None else [list(p) for p in self.annuli]
        )
        d["out_dir"] = "."
        return d


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def _stage_matrix(config: PipelineConfig) -> tuple[dict, Optional[EigenData]]:
    """Certify the integer matrix: char poly, irreducibility, root chain.

    Returns the eigendata only when the matrix passes."""
    frag: dict = {"status": "fail"}
    try:
        spec = IntegerMatrixSpec.from_rows([list(r) for r in config.matrix])
    except ValueError as exc:
        frag["error"] = f"matrix rejected: {exc}"
        return frag, None
    poly = char_poly(spec)
    frag["char_poly_coeffs"] = list(poly)
    irreducible = check_irreducible(poly)
    frag["irreducible_over_rationals"] = irreducible
    if not irreducible:
        frag["error"] = "characteristic polynomial has a rational root"
        return frag, None
    try:
        eig = EigenData.from_matrix(spec, tol=config.root_tol)
    except RootIsolationError as exc:
        frag["error"] = f"root isolation failed: {exc}"
        return frag, None
    chain = verify_eigenvalue_condition(eig)
    frag["roots"] = list(eig.values)
    frag["root_interval_widths"] = [
        float(iv.width) for iv in eig.intervals
    ]
    frag["chain"] = {
        "relations": [
            {"name": name, "state": state, "margin": margin}
            for name, state, margin in zip(
                CHAIN_RELATIONS, chain.states, chain.margins
            )
        ],
        "min_margin": min(chain.margins),
        "ok": chain.ok,
    }
    if not chain.ok:
        frag["error"] = "eigenvalue chain not certified: " + chain.describe()
        return frag, None
    frag["status"] = "pass"
    return frag, eig


def _stage_nilmanifold(
    eig: EigenData,
) -> tuple[dict, AutomorphismSpec, LatticeSpec]:
    """Build the lattice and automorphism; check exact structural residuals."""
    auto = AutomorphismSpec.from_eigendata(eig)
    lattice = LatticeSpec.from_eigendata(eig)
    closure = lattice.bch_closure_residual()
    integrality = lattice.automorphism_integrality_residual(auto)
    frag = {
        "covolume": lattice.covolume(),
        "shortest_generator_norm": lattice.shortest_generator_norm(),
        "bch_closure_residual": closure,
        "automorphism_integrality_residual": integrality,
    }
    ok = closure < 1e-9 and integrality < 1e-9
    frag["status"] = "pass" if ok else "fail"
    if not ok:
        frag["error"] = "lattice residuals exceed 1e-9"
    return frag, auto, lattice


def _annuli(
    config: PipelineConfig, eig: EigenData
) -> tuple[AnnulusSpec, AnnulusSpec]:
    """The configured annuli, or the defaults derived from the roots."""
    if config.annuli is not None:
        return AnnulusSpec(*config.annuli[0]), AnnulusSpec(*config.annuli[1])
    return _default_annuli(eig, config.surplus)


def _default_annuli(
    eig: EigenData, surplus: float
) -> tuple[AnnulusSpec, AnnulusSpec]:
    """Separating annuli at geometric thirds of the two spectral gaps.

    The lower annulus sits inside (l1, l2), the upper inside
    (1 + surplus, l3); each leaves a third of the gap (in log scale) on
    both sides, so grid certificates retain usable margins.  Raises
    :class:`ConfigError` when ``1 + surplus`` leaves no room below ``l3``.
    """
    l1, l2, l3 = eig.values
    g1 = (l2 / l1) ** (1.0 / 3.0)
    g2 = (l3 / (1.0 + surplus)) ** (1.0 / 3.0)
    try:
        upper = AnnulusSpec((1.0 + surplus) * g2, l3 / g2)
    except ValueError as exc:
        raise ConfigError(
            f"surplus {surplus!r} leaves no room for the default upper "
            f"annulus: 1 + surplus must be below the top eigenvalue "
            f"{l3:.6g} ({exc})"
        ) from exc
    return AnnulusSpec(l1 * g1, l2 / g1), upper


def _expanding_eigenspace_angle(final_matrix: np.ndarray) -> tuple[int, float]:
    """Dimension of the expanding eigenspace and its principal angle to
    the expected coordinate block (second in-plane axis plus the
    expanding block)."""
    evals, vecs = np.linalg.eig(final_matrix)
    cols = [k for k in range(final_matrix.shape[0]) if abs(evals[k]) > 1.0]
    frame = np.real_if_close(vecs[:, cols], tol=1e6)
    frame = np.asarray(frame, dtype=float)
    q, _ = np.linalg.qr(frame)
    target_axes = (3,) + tuple(EXPANDING_AXES)
    target = np.zeros((final_matrix.shape[0], len(target_axes)))
    for j, ax in enumerate(target_axes):
        target[ax, j] = 1.0
    if q.shape[1] != target.shape[1]:
        return len(cols), math.pi / 2.0
    return len(cols), principal_angle(q, target)


def _stage_planner(
    config: PipelineConfig,
    eig: EigenData,
    auto: AutomorphismSpec,
    annuli: tuple[AnnulusSpec, AnnulusSpec],
) -> tuple[dict, Optional[PlanStep]]:
    """Label the spectrum, plan the collapse, verify the planned spectrum.

    Returns the plan's step only when the plan passes, and a plan passes
    only with a single step.  Every single-step plan turns a coordinate
    plane, the planes on which the rotation kernels are exact.
    """
    l1, l2, l3 = eig.values
    frag: dict = {
        "annuli": [[a.alpha_q, a.beta_q] for a in annuli],
        "feasibility_product": l2 * l3 * l3,
        "feasibility_requires_exceeds": l3,
        "status": "fail",
    }
    if not (l2 * l3 * l3 > l3):
        frag["error"] = "in-plane product does not exceed the top modulus"
        return frag, None
    try:
        labeled = LabeledSpectrum.from_diagonal(auto.diag, annuli[0], annuli[1])
        plan = plan_center_collapse(
            labeled,
            s=config.surplus,
            annuli=annuli,
            grid=config.theta_grid,
        )
    except PlanningError as exc:
        frag["error"] = f"planning failed: {exc}"
        return frag, None
    frag["plan"] = plan.to_json_dict()
    final = apply_plan(np.diag(auto.diag), plan)
    dim_exp, angle = _expanding_eigenspace_angle(final)
    frag["expanding_eigenspace"] = {
        "dimension": dim_exp,
        "principal_angle_to_expected": angle,
    }
    moduli = np.abs(np.linalg.eigvals(final))
    frag["planned_moduli"] = sorted(float(m) for m in moduli)
    errors = []
    if not (
        len(plan.steps) == 1
        and dim_exp == 4
        and angle < 1e-8
        and bool(np.all(np.abs(moduli - 1.0) > 1e-6))
    ):
        errors.append("planned spectrum failed verification")
    # plan.avoidance holds one result per (step, annulus), annuli innermost.
    for k, res in enumerate(plan.avoidance):
        if not res.certified:
            name = ("lower", "upper")[k % 2]
            ann = annuli[k % 2]
            errors.append(
                f"avoidance of the {name} annulus [{ann.alpha_q:.6g}, "
                f"{ann.beta_q:.6g}] on step {k // 2 + 1} not certified: "
                + res.describe()
            )
    if errors:
        frag["error"] = "; ".join(errors)
        return frag, None
    frag["status"] = "pass"
    (step,) = plan.steps
    return frag, step


@dataclass(frozen=True, eq=False)
class Construction:
    """The map that every stage after the planner certifies: the
    certified eigendata, the automorphism and its lattice, the separating
    annuli, and the one rotation step of a verified plan."""

    eig: EigenData
    auto: AutomorphismSpec
    lattice: LatticeSpec
    annuli: tuple[AnnulusSpec, AnnulusSpec]
    step: PlanStep

    def deformed_map(self, eps: float, chart_radius: float) -> DeformedMap:
        """The automorphism deformed by the planned rotation, with a
        profile of slope budget ``eps``."""
        return DeformedMap(
            auto=self.auto,
            rotation=LocalRotationMap(
                profile=make_profile(self.step.angle, eps), plane=self.step.plane
            ),
            lattice=self.lattice,
            chart_radius=chart_radius,
        )


def build_construction(config: PipelineConfig) -> tuple[dict, Optional[Construction]]:
    """Run the matrix, nilmanifold and planner stages.

    Returns their report fragments in stage order, up to the first that
    fails, and the construction only when all three pass.
    """
    stages: dict = {}
    stages["matrix"], eig = _stage_matrix(config)
    if eig is None:
        return stages, None
    stages["nilmanifold"], auto, lattice = _stage_nilmanifold(eig)
    if stages["nilmanifold"]["status"] != "pass":
        return stages, None
    annuli = _annuli(config, eig)
    stages["planner"], step = _stage_planner(config, eig, auto, annuli)
    if step is None:
        return stages, None
    return stages, Construction(eig, auto, lattice, annuli, step)


def _stage_deformation(
    config: PipelineConfig, con: Construction, rng: np.random.Generator
) -> tuple[dict, Optional[DeformedMap]]:
    """Build the compactly supported rotation and sanity-check its derivative."""
    frag: dict = {"status": "fail"}
    try:
        dyn = con.deformed_map(config.support_eps, config.chart_radius)
    except ProfileError as exc:
        frag["error"] = f"profile construction failed: {exc}"
        return frag, None
    except DeformationError as exc:
        frag["error"] = f"deformation rejected: {exc}"
        return frag, None
    rotation = dyn.rotation
    profile = rotation.profile
    plane = con.step.plane

    frag["profile"] = {
        "plateau_angle": profile.a,
        "slope_budget": profile.eps,
        "log_branch_start": profile.b,
        "log_branch_constant": profile.c,
        "blend_half_width": profile.w,
        "sup_t_slope": profile.sup_t_slope,
        "support_radius": profile.support_radius,
    }
    # Derivative at the fixed point must be exactly the planned rotation.
    d0 = dyn.jacobian_at(np.zeros(DIM))
    planned = plane.rotation_matrix(con.step.angle) @ np.diag(con.auto.diag)
    fixed_point_dev = float(np.max(np.abs(d0 - planned)))
    # Sampled rotation-distance and volume checks inside the support.
    x = np.empty((200, DIM))
    for k in range(200):
        d = rng.normal(size=DIM)
        x[k] = d * (rng.uniform(0.0, profile.support_radius * 1.2) / np.linalg.norm(d))
    jac = rotation.jacobian(x)
    angles = psi_eval(profile, [float(np.linalg.norm(xk)) for xk in x])
    rot = np.array([plane.rotation_matrix(float(theta)) for theta in angles])
    sup_dev = float(np.linalg.norm(jac - rot, 2, axis=(1, 2)).max())
    det_dev = float(np.abs(np.linalg.det(jac) - 1.0).max())
    frag["fixed_point_derivative_dev"] = fixed_point_dev
    frag["max_rotation_distance"] = sup_dev
    frag["max_det_deviation"] = det_dev
    frag["expansion_constant"] = dyn.expansion_constant
    ok = (
        fixed_point_dev == 0.0
        and sup_dev < config.support_eps
        and det_dev < 1e-9
    )
    frag["status"] = "pass" if ok else "fail"
    if not ok:
        frag["error"] = "derivative checks failed inside the support"
    return frag, dyn


def _stage_certification(
    config: PipelineConfig, con: Construction
) -> tuple[dict, Optional[DominationWitness]]:
    """Uniform domination exponent plus robustness radius for the family."""
    frag: dict = {"status": "fail"}
    try:
        witness = find_domination_exponent(
            con.auto.diag,
            con.step.plane,
            con.step.angle,
            con.annuli,
            n_max=config.n_max,
            grid=config.theta_grid,
            margin_floor=config.margin_floor,
        )
    except CertificationError as exc:
        frag["error"] = str(exc)
        frag["margin_history"] = [list(r) for r in getattr(exc, "history", ())]
        return frag, None
    frag["witness"] = {
        "exponent": witness.exponent,
        "thresholds": list(witness.thresholds),
        "worst_margins": list(witness.worst_margins),
        "worst_thetas": list(witness.worst_thetas),
        "multipliers": list(witness.multipliers),
        "grid": witness.grid,
        "margin_floor": witness.margin_floor,
        "lambda_cap": witness.lambda_cap,
        "lambda_at_cap": list(witness.lambda_at_cap),
    }
    frag["margin_history"] = [list(r) for r in witness.history]
    rob = robustness_radius(
        con.auto.diag,
        con.step.plane,
        con.step.angle,
        con.annuli,
        n=witness.exponent,
        grid=config.robustness_grid,
        trials=config.mc_trials,
        seed=config.seed,
    )
    frag["robustness"] = {
        "delta": rob.delta,
        "per_threshold": list(rob.per_threshold),
        "trials": rob.trials,
        "failures": rob.failures,
        "fallbacks": rob.fallbacks,
        "safety": rob.safety,
        "seed": rob.seed,
    }
    ok = rob.delta > 0.0 and rob.failures == 0
    frag["status"] = "pass" if ok else "fail"
    if not ok:
        frag["error"] = "robustness validation failed"
    return frag, witness


def _stage_rates(
    config: PipelineConfig, con: Construction, dyn: DeformedMap, exponent: int
) -> dict:
    """Four rate bullets, bunching margin, and the undeformed oracle check."""
    l1, l2, l3 = con.eig.values
    deformed = bunching_report(
        dyn,
        (l1, l2, l3),
        n=exponent,
        eps_rate=config.rate_eps,
        sample_count=config.sample_count,
        inner_scale=config.inner_scale,
        plane_axes=con.step.axes,
        seed=config.seed,
        extraction_steps=config.extraction_steps,
    )
    undeformed = bunching_report(
        LinearDynamics(con.auto, con.lattice),
        (l1, l2, l3),
        n=exponent,
        eps_rate=config.rate_eps,
        sample_count=config.sample_count,
        inner_scale=config.inner_scale,
        plane_axes=con.step.axes,
        seed=config.seed,
        extraction_steps=config.extraction_steps,
    )
    nu_oracle = l1
    nu_hat_oracle = 1.0 / l3
    repro_nu = abs(undeformed.nu - nu_oracle)
    repro_nu_hat = abs(undeformed.nu_hat - nu_hat_oracle)
    frag = {
        "exponent": deformed.exponent,
        "sample_count": deformed.sample_count,
        "measured": {
            "s_max": deformed.s_max,
            "c_lo": deformed.c_lo,
            "c_hi": deformed.c_hi,
            "u_min": deformed.u_min,
        },
        "bounds": {
            "s_max_below": deformed.s_bound,
            "c_lo_above": deformed.c_lo_bound,
            "c_hi_below": deformed.c_hi_bound,
            "u_min_above": deformed.u_bound,
        },
        "bullets": list(deformed.bullets),
        "bunching": {
            "nu": deformed.nu,
            "nu_hat": deformed.nu_hat,
            "gamma": deformed.gamma,
            "gamma_hat": deformed.gamma_hat,
            "margin": deformed.bunching_margin,
        },
        "undeformed_oracle": {
            "nu": nu_oracle,
            "nu_hat": nu_hat_oracle,
            "nu_measured": undeformed.nu,
            "nu_hat_measured": undeformed.nu_hat,
            "nu_abs_error": repro_nu,
            "nu_hat_abs_error": repro_nu_hat,
        },
    }
    ok = (
        deformed.all_bullets_hold
        and deformed.center_bunched
        and repro_nu < 1e-6
        and repro_nu_hat < 1e-6
    )
    frag["status"] = "pass" if ok else "fail"
    if not ok:
        frag["error"] = "rate bullets, bunching, or oracle reproduction failed"
    return frag


def _stage_sweep(config: PipelineConfig, con: Construction) -> dict:
    """Splitting deviation ladder over support scales, plus zero control."""
    warnings: list[str] = []

    def dynamics_for(scale: float):
        if scale == 0.0:
            return LinearDynamics(con.auto, con.lattice)
        dyn = con.deformed_map(scale, config.chart_radius)
        radius = dyn.rotation.profile.support_radius
        if radius >= config.probe_radius:
            warnings.append(
                f"probe set at radius {config.probe_radius} intersects the "
                f"support ball (radius {radius:.4g}) for "
                f"support scale {scale:.4g}"
            )
        return dyn

    scales = list(config.sweep_supports) + [0.0]
    points = splitting_deviation_sweep(
        dynamics_for,
        scales,
        probe_radius=config.probe_radius,
        probe_count=config.probe_count,
        seed=config.seed + 1,
        extraction_steps=max(90, config.extraction_steps),
    )
    ladder = [p.deviation for p in points[:-1]]
    control = points[-1].deviation
    strictly_decreasing = all(
        ladder[i] > ladder[i + 1] for i in range(len(ladder) - 1)
    )
    frag = {
        "points": [
            {"support_scale": p.radius, "deviation": p.deviation}
            for p in points
        ],
        "strictly_decreasing": strictly_decreasing,
        "final_deviation": ladder[-1] if ladder else None,
        "control_deviation": control,
        "warnings": warnings,
    }
    ok = (
        strictly_decreasing
        and bool(ladder)
        and ladder[-1] < 1e-3
        and control == 0.0
    )
    frag["status"] = "pass" if ok else "fail"
    if not ok:
        frag["error"] = "sweep not decreasing to tolerance with exact control"
    return frag


# ---------------------------------------------------------------------------
# Report assembly and file emission
# ---------------------------------------------------------------------------


_ERRATUM_NOTES = [
    "The redistribution target for the accumulated modulus is "
    "|c * u_1 ... u_m| / mu^m (determinant-consistent): each planned "
    "rotation preserves its in-plane product, so after m steps the "
    "accumulator must carry the total product divided by mu^m, and the "
    "final inequality mu^-m |c u_1 ... u_m| > mu^m holds.",
    "Reading the target modulus as |c u_1| mu (multiplying instead of "
    "dividing) violates volume preservation: the planned spectrum's "
    "product would differ from the input's, which the determinant check "
    "rejects on every volume-preserving input.",
]

_METHOD_NOTES = [
    "Lattice reduction is a greedy nearest-plane pass with a group "
    "correction; representatives are near-shortest but not canonical, "
    "and reduction is applied before the local rotation in each step.",
    "Volume preservation is checked in exponential coordinates, where "
    "the group's bi-invariant volume is the Lebesgue measure and the "
    "deformation is an isometry-by-radius rotation field.",
    "The certified eigenvalue chain feeds every stage: separating "
    "annuli, cone thresholds, rate bounds, and the expansion constant "
    "used for the deformation's displacement bound.",
]


def _iso_timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _emit_curves(out_dir: Path, report: dict, config: PipelineConfig) -> None:
    curves = out_dir / "curves"
    cert = report["stages"].get("certification", {})
    history = cert.get("margin_history", [])
    if history:
        _write_csv(
            curves / "margin_vs_n.csv",
            ["n", "margin_lower_annulus", "margin_upper_annulus"],
            history,
        )
    sweep = report["stages"].get("sweep", {})
    points = sweep.get("points", [])
    if points:
        _write_csv(
            curves / "support_sweep.csv",
            ["support_scale", "deviation"],
            [(p["support_scale"], p["deviation"]) for p in points],
        )
    deform = report["stages"].get("deformation", {})
    prof = deform.get("profile")
    if prof:
        profile = make_profile(prof["plateau_angle"], prof["slope_budget"])
        ts = np.geomspace(
            max(profile.b / 4.0, 1e-300), profile.eps, 512
        )
        rows = [
            (t, float(v), t * float(s))
            for t, v, s in zip(ts, psi_eval(profile, ts), psi_slope(profile, ts))
        ]
        _write_csv(curves / "psi_profile.csv", ["t", "psi", "t_times_slope"], rows)


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and assemble the report dict (no files written).

    The stages after the planner run only on a construction whose plan
    passed; a failed matrix, nilmanifold or planner stage ends the report.
    """
    stages, con = build_construction(config)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": {"name": "nilcert", "version": __version__},
        "timestamp": _iso_timestamp(),
        "config": config.echo_dict(),
        "stages": stages,
        "erratum_notes": _ERRATUM_NOTES,
        "notes": _METHOD_NOTES,
    }
    if stages["matrix"]["status"] != "pass":
        report["input_invalid"] = True
    if con is not None:
        rng = np.random.default_rng(config.seed)
        stages["deformation"], dyn = _stage_deformation(config, con, rng)
        stages["certification"], witness = _stage_certification(config, con)
        if dyn is not None and witness is not None:
            stages["rates"] = _stage_rates(config, con, dyn, witness.exponent)
        stages["sweep"] = _stage_sweep(config, con)
    failures = [name for name, frag in stages.items() if frag["status"] != "pass"]
    report["verdict"] = "PASS" if not failures else "FAIL"
    report["failures"] = failures
    return report


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify_matrix(config: PipelineConfig) -> int:
    """Certify the configured matrix and print the report fragment."""
    frag, eig = _stage_matrix(config)
    print(json.dumps(frag, indent=2, sort_keys=True))
    return EXIT_PASS if eig is not None else EXIT_INVALID_INPUT


def cmd_certify(config: PipelineConfig) -> int:
    """Run the full pipeline, write report.json and curves, summarize."""
    report = run_pipeline(config)
    out_dir = Path(config.out_dir)
    _write_json(out_dir / "report.json", report)
    _emit_curves(out_dir, report, config)
    for name, frag in report["stages"].items():
        line = f"{name}: {frag.get('status', '?')}"
        if frag.get("error"):
            line += f" ({frag['error']})"
        print(line)
    print(f"verdict: {report['verdict']}")
    print(f"report: {out_dir / 'report.json'}")
    if report["verdict"] == "PASS":
        return EXIT_PASS
    if report.get("input_invalid"):
        return EXIT_INVALID_INPUT
    return EXIT_CERTIFICATION_FAILURE


def _prefix_failure(stages: dict) -> int:
    """Print why the matrix or the nilmanifold stage failed, and return
    the exit code of that failure."""
    if stages["matrix"]["status"] != "pass":
        print(json.dumps(stages["matrix"], indent=2, sort_keys=True))
        return EXIT_INVALID_INPUT
    print("lattice construction failed")
    return EXIT_CERTIFICATION_FAILURE


def cmd_sweep_support(config: PipelineConfig) -> int:
    """Run matrix/planning prerequisites, then the sweep; write its CSV."""
    stages, con = build_construction(config)
    if "planner" not in stages:
        return _prefix_failure(stages)
    if con is None:
        print(f"planning failed: {stages['planner'].get('error')}")
        return EXIT_CERTIFICATION_FAILURE
    frag = _stage_sweep(config, con)
    out_dir = Path(config.out_dir)
    _write_csv(
        out_dir / "curves" / "support_sweep.csv",
        ["support_scale", "deviation"],
        [(p["support_scale"], p["deviation"]) for p in frag["points"]],
    )
    for p in frag["points"]:
        print(f"support_scale {p['support_scale']:.6e}  deviation {p['deviation']:.6e}")
    for w in frag["warnings"]:
        print(f"warning: {w}")
    print(
        "strictly decreasing: "
        f"{frag['strictly_decreasing']}; control {frag['control_deviation']}"
    )
    return EXIT_PASS if frag["status"] == "pass" else EXIT_CERTIFICATION_FAILURE


def cmd_plan(config: PipelineConfig) -> int:
    """Run the planner alone and print the plan as JSON."""
    stages, con = build_construction(config)
    if "planner" not in stages:
        return _prefix_failure(stages)
    print(json.dumps(stages["planner"], indent=2, sort_keys=True))
    return EXIT_PASS if con is not None else EXIT_CERTIFICATION_FAILURE


def _print_certification_diagnostics(frag: dict) -> None:
    witness = frag.get("witness", {})
    if "lambda_cap" in witness:
        print(f"    multiplier cap {witness['lambda_cap']:g}, reached per annulus: "
              f"{witness['lambda_at_cap']}")
    rob = frag.get("robustness", {})
    if "fallbacks" in rob:
        print(f"    Monte Carlo: {rob['failures']} failures in {rob['trials']} trials, "
              f"{rob['fallbacks']} Cholesky fallbacks")


def cmd_report(config: PipelineConfig) -> int:
    """Pretty-print a previously written report from the output directory."""
    path = Path(config.out_dir) / "report.json"
    try:
        report = json.loads(path.read_text())
    except OSError as exc:
        print(f"cannot read report {path}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except json.JSONDecodeError as exc:
        print(f"report {path} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    print(f"schema {report.get('schema_version')}, "
          f"tool {report.get('tool', {}).get('name')} "
          f"{report.get('tool', {}).get('version')}, "
          f"written {report.get('timestamp')}")
    for name, frag in report.get("stages", {}).items():
        status = frag.get("status", "?")
        print(f"  {name}: {status}")
        if frag.get("error"):
            print(f"    error: {frag['error']}")
        if name == "certification":
            _print_certification_diagnostics(frag)
    print(f"verdict: {report.get('verdict')}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcert",
        description=(
            "Certify a volume-preserving, partially hyperbolic deformation "
            "of a nilmanifold automorphism and emit machine-readable reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify-matrix", "certify the integer matrix's spectral chain"),
        ("certify", "run the full pipeline and write report.json + curves"),
        ("sweep-support", "measure splitting deviation over support scales"),
        ("plan", "run the rotation planner alone and print the plan"),
        ("report", "pretty-print a written report.json"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="sampling seed override")
        p.add_argument("--grid", type=int, default=None, help="theta-grid size override")
    return parser


_COMMANDS = {
    "verify-matrix": cmd_verify_matrix,
    "certify": cmd_certify,
    "sweep-support": cmd_sweep_support,
    "plan": cmd_plan,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = (
            PipelineConfig.from_file(args.config)
            if args.config
            else PipelineConfig()
        )
        overrides = {}
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.grid is not None:
            overrides["theta_grid"] = args.grid
        if overrides:
            config = config.replace(**overrides)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        code = _COMMANDS[args.command](config)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # Later writes, including the interpreter's final flush, go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (PlanningError, CertificationError, ProfileError, DeformationError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION_FAILURE
    except Exception:  # pragma: no cover - defensive catch-all
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
