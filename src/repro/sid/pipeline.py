"""End-to-end classic SID (the paper's baseline technique).

Given a module and its *reference input*, measure cost and benefit per
instruction (①②), select under the protection level, transform, and report
the expected coverage — exactly the workflow existing SID studies use with a
single input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.module import Module
from repro.obs.timers import PhaseTimer
from repro.detectors.transform import ProtectedModule, duplicate_instructions
from repro.sid.profiles import CostBenefitProfile, build_profile_from_source
from repro.sid.selection import SelectionResult, select_instructions
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run

__all__ = ["SIDConfig", "SIDResult", "classic_sid"]


@dataclass(frozen=True)
class SIDConfig:
    """Knobs of the classic SID pipeline."""

    #: Fraction of total dynamic cycles allowed for duplication.
    protection_level: float = 0.5
    #: Faults per static instruction in the benefit measurement.
    per_instruction_trials: int = 20
    #: Master seed of the benefit campaign.
    seed: int = 2022
    #: Knapsack solver ("greedy" per the paper, or "dp").
    knapsack_method: str = "greedy"
    #: Check placement: "sync" per the paper, "immediate" (the ablation),
    #: or "store" (verify only at the next in-block store — the zoo's
    #: store-only detector; see :mod:`repro.detectors`).
    check_placement: str = "sync"
    #: Output comparison tolerances (per-app SDC criterion).
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    #: Process fan-out for FI campaigns (0/1 = serial).
    workers: int | None = 0
    #: Where SDC probabilities come from: "fi" (inject — the paper's
    #: method), "model" (static prediction), or "hybrid" (predict, verify
    #: near the knapsack cut).
    profile_source: str = "fi"


@dataclass
class SIDResult:
    """Everything classic SID produces for one program."""

    protected: ProtectedModule
    selection: SelectionResult
    profile: CostBenefitProfile = field(repr=False)
    #: Phase breakdown of the pipeline run (same phases as MINPSID's, minus
    #: the search engine — that is the baseline's whole point).
    stopwatch: PhaseTimer = None

    @property
    def expected_coverage(self) -> float:
        return self.selection.expected_coverage


def classic_sid(
    module: Module,
    args: list | None,
    bindings: dict[str, list] | None,
    config: SIDConfig = SIDConfig(),
) -> SIDResult:
    """Run the full baseline SID pipeline on the reference input."""
    sw = PhaseTimer()
    program = Program(module)
    with sw.phase("per_inst_fi_ref"):
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
            protection_levels=(config.protection_level,),
            dyn_profile=dyn,
        )
    with sw.phase("selection"):
        selection = select_instructions(
            profile, config.protection_level, method=config.knapsack_method
        )
    with sw.phase("transform"):
        protected = duplicate_instructions(
            module, selection.selected, check_placement=config.check_placement
        )
    return SIDResult(
        protected=protected, selection=selection, profile=profile, stopwatch=sw
    )
