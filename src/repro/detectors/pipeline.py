"""End-to-end detector-zoo pipeline: profile → candidates → frontier → FI.

The detector analogue of :func:`repro.sid.pipeline.classic_sid`: given a
module and its reference input, build the cost/benefit profile (by default
from the *static model* — the objective the ISSUE prescribes: predicted SDC
probability × detector coverage), mine the golden-run value profile, gather
priced candidates from the requested detectors, trace the coverage-vs-
overhead frontier, and optionally validate each frontier configuration with
FI campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detectors.optimizer import (
    DEFAULT_BUDGETS,
    FrontierPoint,
    gather_candidates,
    pareto_frontier,
)
from repro.detectors.validate import ConfigValidation, validate_frontier
from repro.detectors.zoo import DETECTOR_KINDS, DetectorContext, make_detectors
from repro.ir.module import Module
from repro.obs.timers import PhaseTimer
from repro.sid.profiles import build_profile_from_source
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run

__all__ = ["FrontierConfig", "FrontierResult", "build_frontier"]


@dataclass(frozen=True)
class FrontierConfig:
    """Knobs of the detector-frontier pipeline."""

    #: Detector kinds to draw candidates from (``--detectors`` spelling).
    detectors: tuple[str, ...] = DETECTOR_KINDS
    #: Budget ladder as fractions of total dynamic cycles (``--frontier``).
    budgets: tuple[float, ...] = DEFAULT_BUDGETS
    #: Where SDC probabilities come from; the model is the default
    #: objective here (predicted SDC probability × detector coverage).
    profile_source: str = "model"
    #: Faults per static instruction when ``profile_source`` injects.
    per_instruction_trials: int = 20
    seed: int = 2022
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    workers: int | None = 0
    #: Whole-program faults per configuration validation (0 = skip FI).
    validate_faults: int = 0


@dataclass
class FrontierResult:
    """Everything the detector pipeline produces for one program."""

    points: list[FrontierPoint]
    profile: object = field(repr=False, default=None)
    candidates: list = field(repr=False, default_factory=list)
    validations: list[ConfigValidation] = field(default_factory=list)
    stopwatch: PhaseTimer = None


def build_frontier(
    module: Module,
    args: list | None,
    bindings: dict[str, list] | None,
    config: FrontierConfig = FrontierConfig(),
) -> FrontierResult:
    """Trace (and optionally FI-validate) one app's detector frontier."""
    sw = PhaseTimer()
    program = Program(module)
    with sw.phase("profile"):
        dyn = profile_run(program, args=args, bindings=bindings)
        profile = build_profile_from_source(
            program,
            args,
            bindings,
            source=config.profile_source,
            trials_per_instruction=config.per_instruction_trials,
            seed=config.seed,
            rel_tol=config.rel_tol,
            abs_tol=config.abs_tol,
            workers=config.workers,
            dyn_profile=dyn,
        )
    with sw.phase("candidates"):
        ctx = DetectorContext(
            program=program, profile=profile, args=args, bindings=bindings
        )
        candidates = gather_candidates(
            make_detectors(config.detectors), ctx
        )
    with sw.phase("frontier"):
        points = pareto_frontier(candidates, profile, budgets=config.budgets)
    validations: list[ConfigValidation] = []
    if config.validate_faults > 0:
        with sw.phase("validate"):
            validations = validate_frontier(
                program,
                points,
                config.validate_faults,
                config.seed,
                args=args,
                bindings=bindings,
                rel_tol=config.rel_tol,
                abs_tol=config.abs_tol,
                workers=config.workers,
            )
    return FrontierResult(
        points=points,
        profile=profile,
        candidates=candidates,
        validations=validations,
        stopwatch=sw,
    )
