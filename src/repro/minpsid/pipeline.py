"""The complete MINPSID pipeline (Fig. 4, ①–⑨).

Input: an application and a protection level. Output: a protected module, the
(conservative) expected coverage, the incubative set, and the Fig. 8-style
time breakdown. Fully automated, like the paper's tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import App
from repro.cache.active import cache_scope
from repro.minpsid.reprioritize import reprioritize
from repro.minpsid.search import InputSearchConfig, SearchOutcome, run_input_search
from repro.detectors.transform import ProtectedModule, duplicate_instructions
from repro.sid.profiles import CostBenefitProfile, build_profile_from_source
from repro.sid.selection import SelectionResult, select_instructions
from repro.obs.timers import PhaseTimer
from repro.vm.profiler import profile_run

__all__ = ["MINPSIDConfig", "MINPSIDResult", "minpsid"]


@dataclass(frozen=True)
class MINPSIDConfig:
    """Knobs of the MINPSID pipeline."""

    protection_level: float = 0.5
    #: Faults per static instruction on the reference input (①).
    per_instruction_trials: int = 20
    seed: int = 2022
    search: InputSearchConfig = InputSearchConfig()
    knapsack_method: str = "greedy"
    check_placement: str = "sync"
    workers: int | None = 0
    #: Disable re-prioritization (ablation: search without using its result).
    apply_reprioritization: bool = True
    #: "max" (paper) or "mean" benefit update (ablation).
    reprioritize_rule: str = "max"
    #: Campaign-cache directory for every FI sweep of the pipeline
    #: (None = ambient cache, False = disabled for this run).
    cache_dir: str | None = None
    #: Source of the reference-input SDC probabilities (①②): "fi" (the
    #: paper's per-instruction campaign), "model" (static prediction only),
    #: or "hybrid" (model + FI verification near the knapsack cut). The
    #: search engine's sweeps (⑤) always use FI — incubative detection
    #: needs measured probabilities on non-reference inputs.
    profile_source: str = "fi"


@dataclass
class MINPSIDResult:
    """Everything the pipeline produces for one application."""

    protected: ProtectedModule
    selection: SelectionResult
    #: The re-prioritized profile the knapsack ran on.
    profile: CostBenefitProfile = field(repr=False, default=None)
    #: The original reference-input profile (pre-re-prioritization).
    reference_profile: CostBenefitProfile = field(repr=False, default=None)
    search: SearchOutcome = None
    stopwatch: PhaseTimer = None

    @property
    def expected_coverage(self) -> float:
        return self.selection.expected_coverage

    @property
    def incubative(self) -> set[int]:
        return self.search.incubative


def minpsid(app: App, config: MINPSIDConfig = MINPSIDConfig()) -> MINPSIDResult:
    """Run MINPSID end-to-end on an application.

    With a campaign cache active (``config.cache_dir`` or an installed
    store), the reference per-instruction sweep (①②) and every searched
    input's sweep (⑤) replay persisted results when nothing relevant
    changed — re-running the pipeline after an unrelated edit costs golden
    runs and the GA, not fault injection.
    """
    with cache_scope(config.cache_dir):
        return _minpsid(app, config)


def _minpsid(app: App, config: MINPSIDConfig) -> MINPSIDResult:
    sw = PhaseTimer()
    module = app.module
    program = app.program
    args, bindings = app.encode(app.reference_input)

    # ①② SID preparation: reference-input profile + SDC probabilities from
    # the configured source (FI campaign, static model, or hybrid).
    with sw.phase("per_inst_fi_ref"):
        dyn = profile_run(program, args=args, bindings=bindings)
        ref_profile = build_profile_from_source(
            program,
            args,
            bindings,
            source=config.profile_source,
            trials_per_instruction=config.per_instruction_trials,
            seed=config.seed,
            rel_tol=app.rel_tol,
            abs_tol=app.abs_tol,
            workers=config.workers,
            protection_levels=(config.protection_level,),
            dyn_profile=dyn,
        )

    # ③–⑦ Input search engine.
    search = run_input_search(
        app,
        reference_benefits=ref_profile.benefit,
        seed=config.seed,
        config=config.search,
        stopwatch=sw,
    )

    # ⑧ Re-prioritization.
    with sw.phase("selection"):
        if config.apply_reprioritization and search.incubative:
            history = search.benefit_history
            if config.reprioritize_rule == "mean":
                from repro.minpsid.incubative import BenefitMap

                mean_b: BenefitMap = {}
                for iid in search.incubative:
                    vals = [h.get(iid, 0.0) for h in history]
                    mean_b[iid] = sum(vals) / len(vals)
                profile = ref_profile.with_benefits(mean_b)
            else:
                profile = reprioritize(ref_profile, history, search.incubative)
        else:
            profile = ref_profile
        # ⑨ Instruction selection at the target protection level.
        selection = select_instructions(
            profile, config.protection_level, method=config.knapsack_method
        )

    # ⑨ Code transformation.
    with sw.phase("transform"):
        protected = duplicate_instructions(
            module, selection.selected, check_placement=config.check_placement
        )

    return MINPSIDResult(
        protected=protected,
        selection=selection,
        profile=profile,
        reference_profile=ref_profile,
        search=search,
        stopwatch=sw,
    )
