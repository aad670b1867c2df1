"""The input search engine (③–⑦ in Fig. 4) and its random-search baseline.

Loop structure (per the paper):

1. run a GA search maximizing weighted-CFG novelty against the history,
2. per-instruction FI on the winning input → its benefit map,
3. update the incubative set from all ordered pairs against the history,
4. repeat until the incubative set stops growing (or the input budget is
   exhausted — the "given time budget" of §I).

The Fig. 7 baseline replaces steps 1 with a blind random draw (no fitness,
no GA); everything else is identical so the comparison isolates the search
heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.apps.base import App, Input
from repro.cache.active import cache_scope
from repro.fi.campaign import run_per_instruction_campaign
from repro.minpsid.ga import GAConfig, GeneticInputSearch
from repro.minpsid.incubative import (
    BenefitMap,
    IncubativeConfig,
    find_incubative,
)
from repro.minpsid.wcfg import fitness_score, indexed_cfg_list
from repro.obs.core import current as _obs_current
from repro.obs.log import get_logger
from repro.obs.timers import PhaseTimer
from repro.util.rng import RngStream
from repro.vm.profiler import DynamicProfile, profile_run

__all__ = ["InputSearchConfig", "SearchOutcome", "run_input_search"]

log = get_logger("minpsid.search")


@dataclass(frozen=True)
class InputSearchConfig:
    """Budget and hyper-parameters of the search engine."""

    #: Maximum number of searched inputs to FI-measure (the time budget).
    max_inputs: int = 10
    #: Stop after this many consecutive inputs adding no incubative instrs.
    stall_limit: int = 3
    #: Faults per static instruction when measuring a searched input.
    per_instruction_trials: int = 8
    #: GA hyper-parameters.
    ga: GAConfig = GAConfig()
    #: Incubative thresholds.
    incubative: IncubativeConfig = IncubativeConfig()
    #: "ga" (MINPSID) or "random" (the Fig. 7 baseline searcher).
    strategy: str = "ga"
    #: Process fan-out for the per-input FI campaigns.
    workers: int | None = 0
    #: Campaign-cache directory for the per-input FI sweeps (None = ambient
    #: cache, False = disabled). The GA revisits inputs across generations
    #: and across protection levels, so searched-input sweeps are the
    #: highest-hit-rate consumers of the cache.
    cache_dir: str | None = None


@dataclass
class SearchOutcome:
    """Everything the search produced."""

    #: Searched inputs in discovery order (reference input first).
    inputs: list[Input]
    #: Benefit map of each searched input (aligned with :attr:`inputs`).
    benefit_history: list[BenefitMap]
    #: The identified incubative instructions.
    incubative: set[int]
    #: Cumulative incubative count after the k-th input (Fig. 7 series).
    trace: list[int] = field(default_factory=list)
    #: Fitness of each accepted input at acceptance time.
    fitness_trace: list[float] = field(default_factory=list)
    #: Total faulty runs spent measuring searched inputs.
    fi_runs: int = 0


def _benefit_map(
    app: App,
    inp: Input,
    trials: int,
    seed: int,
    workers: int,
    profile: DynamicProfile | None = None,
    cache=None,
) -> tuple[BenefitMap, int]:
    """Per-instruction FI on one input → its Eq.-2 benefit map."""
    args, bindings = app.encode(inp)
    program = app.program
    if profile is None:
        profile = profile_run(program, args=args, bindings=bindings)
    fi = run_per_instruction_campaign(
        program,
        trials_per_instruction=trials,
        seed=seed,
        args=args,
        bindings=bindings,
        rel_tol=app.rel_tol,
        abs_tol=app.abs_tol,
        workers=workers,
        profile=profile,
        cache=cache,
    )
    total = profile.total_cycles or 1
    benefits: BenefitMap = {}
    for iid, counts in fi.per_iid.items():
        cost = profile.instr_cycles[iid] / total
        benefits[iid] = counts.sdc_probability * cost
    runs = sum(c.total for c in fi.per_iid.values())
    return benefits, runs


def run_input_search(
    app: App,
    reference_benefits: BenefitMap,
    seed: int,
    config: InputSearchConfig = InputSearchConfig(),
    stopwatch: PhaseTimer | None = None,
) -> SearchOutcome:
    """Run the search engine starting from the app's reference input.

    ``reference_benefits`` is the benefit map already measured during SID
    preparation (①), so the reference input costs no extra FI here. With a
    campaign cache active (``config.cache_dir`` or an installed store), a
    searched input whose sweep was already measured — in an earlier run, an
    earlier protection level, or an earlier search round — replays the
    persisted result; per-round reuse is reported in the ``search.round``
    telemetry event (``cache_hits``).
    """
    with cache_scope(config.cache_dir):
        return _run_input_search(
            app, reference_benefits, seed, config, stopwatch
        )


def _run_input_search(
    app: App,
    reference_benefits: BenefitMap,
    seed: int,
    config: InputSearchConfig,
    stopwatch: PhaseTimer | None,
) -> SearchOutcome:
    sw = stopwatch or PhaseTimer()
    rng = RngStream(seed, "input-search", config.strategy)
    program = app.program

    ref_input = app.input_spec.validate(app.reference_input)
    ref_args, ref_bindings = app.encode(ref_input)
    with sw.phase("search_engine"):
        ref_profile = profile_run(program, args=ref_args, bindings=ref_bindings)
        history_lists = [indexed_cfg_list(program, ref_profile)]

    outcome = SearchOutcome(
        inputs=[ref_input],
        benefit_history=[dict(reference_benefits)],
        incubative=set(),
        trace=[0],
        fitness_trace=[0.0],
    )

    profile_cache: dict[tuple, DynamicProfile] = {}

    def cfg_list_of(inp: Input):
        key = tuple(sorted(inp.items()))
        prof = profile_cache.get(key)
        if prof is None:
            a, b = app.encode(inp)
            prof = profile_run(program, args=a, bindings=b)
            profile_cache[key] = prof
        return indexed_cfg_list(program, prof)

    def evaluate(inp: Input) -> float:
        return fitness_score(cfg_list_of(inp), history_lists)

    stall = 0
    round_no = 0
    while len(outcome.inputs) - 1 < config.max_inputs and stall < config.stall_limit:
        round_no += 1
        with sw.phase("search_engine"):
            if config.strategy == "ga":
                ga = GeneticInputSearch(
                    app.input_spec, evaluate, rng.child("ga", round_no), config.ga
                )
                candidate = ga.search(seeds=list(outcome.inputs))
            else:
                candidate = app.input_spec.random(rng.child("rand", round_no))
            candidate = app.input_spec.validate(candidate)
            fitness = evaluate(candidate)

        t = _obs_current()
        hits_before = (
            t.metrics.counters.get("cache.hit", 0) if t is not None else 0
        )
        with sw.phase("per_inst_fi_incubative"):
            key = tuple(sorted(candidate.items()))
            benefits, runs = _benefit_map(
                app,
                candidate,
                config.per_instruction_trials,
                seed=RngStream(seed, "fi", round_no).seed,
                workers=config.workers,
                profile=profile_cache.get(key),
            )
        outcome.fi_runs += runs
        outcome.inputs.append(candidate)
        outcome.benefit_history.append(benefits)
        outcome.fitness_trace.append(fitness)
        history_lists.append(cfg_list_of(candidate))

        before = set(outcome.incubative)
        outcome.incubative = find_incubative(
            outcome.benefit_history, config.incubative
        )
        outcome.trace.append(len(outcome.incubative))
        new_incubative = sorted(outcome.incubative - before)
        stall = stall + 1 if len(outcome.incubative) == len(before) else 0

        if t is not None:
            t.count("search.rounds")
            if new_incubative:
                t.count("search.incubative_found", len(new_incubative))
                t.emit(
                    "search.incubative",
                    {"round": round_no, "iids": new_incubative},
                )
            t.emit(
                "search.round",
                {
                    "round": round_no,
                    "strategy": config.strategy,
                    "fitness": fitness,
                    "fi_runs": runs,
                    "incubative": len(outcome.incubative),
                    "new_incubative": len(new_incubative),
                    "stall": stall,
                    "cache_hits": (
                        t.metrics.counters.get("cache.hit", 0) - hits_before
                    ),
                },
            )
        log.info(
            "round %d: fitness=%.4f fi_runs=%d incubative=%d (+%d) stall=%d",
            round_no, fitness, runs, len(outcome.incubative),
            len(new_incubative), stall,
        )

    return outcome
