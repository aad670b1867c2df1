"""FI campaigns: whole-program and per-instruction Monte-Carlo estimation.

Both campaign styles are deterministic in (program, input, seed) and can fan
out across processes. For parallel runs, workers receive the module as text
(cheap to pickle) and rebuild/cache the decoded :class:`Program` per process,
mirroring how the paper farms LLFI runs across nodes.

Because outcomes are pure functions of (program text, input, fault model,
trial plan), both entry points also consult the content-addressed campaign
cache (:mod:`repro.cache`) when one is active: a hit skips profiling,
checkpoint recording, and every trial, returning a bit-identical result; a
miss runs as usual and writes back. Pass ``cache=False`` to opt a single
call out, or an explicit :class:`~repro.cache.CampaignCache` to override
the installed one.

Pooled dispatch is *supervised* (:mod:`repro.util.supervisor`): crashed,
hung, or raising workers are retried with backoff on a respawned pool, so a
host-side infrastructure fault no longer aborts a campaign. A campaign
either returns the complete, bit-identical outcome set or raises a typed
:class:`~repro.errors.HarnessError`; partial results are never returned and
never published to the cache.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cache.active import active_cache
from repro.cache.keys import per_instruction_key, whole_program_key
from repro.fi.faultmodel import (
    FaultSite,
    injectable_iids,
    sample_fault_sites,
    sample_per_instruction_sites,
)
from repro.fi.injector import inject_one, inject_one_resumed
from repro.fi.outcome import Outcome, OutcomeCounts, classify_run
from repro.fi.stats import wilson_interval
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.obs.core import current as _obs_current, install_worker
from repro.obs.progress import progress_scope
from repro.obs.spans import span as _span
from repro.util.parallel import parallel_map, resolve_workers
from repro.util.rng import RngStream
from repro.vm.batch import (
    resolve_batch_size,
    resolve_engine,
    run_trials_lockstep,
)
from repro.vm.checkpoint import CheckpointStore, record_checkpoints
from repro.vm.interpreter import Program
from repro.vm.profiler import DynamicProfile, profile_run

__all__ = [
    "CampaignResult",
    "PerInstructionResult",
    "HybridResult",
    "run_campaign",
    "run_per_instruction_campaign",
    "run_model_guided_campaign",
    "per_detector_detection",
]


@dataclass
class CampaignResult:
    """Whole-program campaign outcome (the paper's 1000-fault campaigns)."""

    counts: OutcomeCounts
    #: (iid, outcome) per injected fault — feeds §IV's which-instruction-
    #: caused-this-SDC root-cause analysis.
    per_fault: list[tuple[int, Outcome]] = field(default_factory=list)
    trials: int = 0

    @property
    def sdc_probability(self) -> float:
        return self.counts.sdc_probability

    def sdc_confidence(self, confidence: float = 0.95) -> tuple[float, float]:
        return wilson_interval(
            self.counts.counts[Outcome.SDC], self.trials, confidence
        )

    def sdc_iids(self) -> set[int]:
        """Static instructions that produced at least one SDC."""
        return {iid for iid, o in self.per_fault if o is Outcome.SDC}


def per_detector_detection(
    result: "CampaignResult", protected
) -> dict[str, tuple[int, int]]:
    """Measured detection per detector kind on a protected-module campaign.

    ``protected`` is the :class:`repro.detectors.ProtectedModule` the
    campaign ran on. Each recorded fault site (a protected-module iid) is
    mapped back to its original instruction via ``origin_of``; faults
    landing on instructions a detector guards are credited to that
    detector's kind. Returns ``kind -> (detected, faults)`` — the measured
    per-detector detection rates the zoo's coverage estimators predict a
    priori. Faults on unguarded instructions aggregate under ``"none"``.
    """
    per_kind: dict[str, tuple[int, int]] = {}
    detectors = getattr(protected, "detectors", {}) or {
        iid: "dup" for iid in protected.protected_iids
    }
    for new_iid, outcome in result.per_fault:
        orig = protected.origin_of(new_iid)
        kind = detectors.get(orig, "none") if orig is not None else "none"
        det, tot = per_kind.get(kind, (0, 0))
        per_kind[kind] = (
            det + (1 if outcome is Outcome.DETECTED else 0),
            tot + 1,
        )
    return per_kind


@dataclass
class PerInstructionResult:
    """Per-instruction campaign outcome (100 faults/instruction style)."""

    per_iid: dict[int, OutcomeCounts]
    profile: DynamicProfile
    trials_per_instruction: int

    def sdc_probability(self, iid: int) -> float:
        """SDC probability of one static instruction under this input.

        Instructions that never executed have probability 0 (no dynamic
        instance to corrupt) — the same convention the paper applies.
        """
        counts = self.per_iid.get(iid)
        return counts.sdc_probability if counts else 0.0

    def sdc_probabilities(self) -> dict[int, float]:
        return {iid: c.sdc_probability for iid, c in self.per_iid.items()}


# ---------------------------------------------------------------------------
# The campaign executor: plan -> run_chunk -> reassemble. ``_plan`` sorts
# ``(pos, iid, instance, bit, snap_index)`` rows by (snapshot, instance) so
# trials sharing a snapshot run back-to-back (a cold campaign is the
# checkpointed one with every row at snapshot -1) and chunks them. Each
# chunk runs through its engine's ``_ENGINES`` entry against one
# :class:`_TrialContext`, serially or on pooled workers (pinned once per
# process by ``_init_worker``, so a chunk payload is just its rows), and
# rows reassemble by ``pos``: outcomes never depend on the schedule.
#
# Telemetry reducer: with an active parent obs session, workers install a
# metrics-only telemetry (pid-guarded, so a forked child never touches the
# parent's trace file) and return a drained metrics delta with every chunk;
# the parent merges them and emits one ``campaign.batch`` record per chunk.
# Deterministic counters therefore match the serial path exactly.
# ---------------------------------------------------------------------------


class _TrialContext(NamedTuple):
    """Everything the trials of one campaign share besides their rows."""

    program: Program
    store: CheckpointStore | None
    golden_output: list
    golden_steps: int
    args: list | None
    bindings: dict | None
    rel_tol: float
    abs_tol: float
    engine: str = "scalar"
    #: Worker side only: the telemetry flag and the span to re-home under.
    obs: bool = False
    span_root: str | None = None


_worker_program: tuple[str, Program] | None = None
_worker_ctx: _TrialContext | None = None


def _get_program(module_text: str) -> Program:
    """Decode ``module_text``, reusing the previous decode of the same text.

    One campaign runs at a time, so one entry suffices; it is matched on
    the text itself, never on a digest of it that two modules could share.
    """
    global _worker_program
    if _worker_program is None or _worker_program[0] != module_text:
        _worker_program = (module_text, Program(parse_module(module_text)))
    return _worker_program[1]


def _run_chunk_scalar(ctx: _TrialContext, chunk, tick=None, stats=None):
    """Scalar engine: one interpreter run per row → ``(pos, iid, outcome)``.

    Rows resume from their snapshot when the campaign has a checkpoint
    store and start cold otherwise. ``tick(1)`` reports each finished trial;
    ``stats`` is unused (scalar trials have no lockstep statistics).
    """
    kw = dict(
        args=ctx.args, bindings=ctx.bindings, rel_tol=ctx.rel_tol,
        abs_tol=ctx.abs_tol,
    )
    out = []
    for pos, iid, instance, bit, snap_index in chunk:
        site = FaultSite(iid, instance, bit)
        if ctx.store is None:
            o = inject_one(
                ctx.program, site, ctx.golden_output, ctx.golden_steps, **kw
            )
        else:
            o = inject_one_resumed(
                ctx.program, site, ctx.store, ctx.golden_output,
                ctx.golden_steps, snapshot_index=snap_index, **kw,
            )
        out.append((pos, iid, o.value))
        if tick is not None:
            tick(1)
    return out


def _run_chunk_lockstep(ctx: _TrialContext, chunk, tick=None, stats=None):
    """Batch engine: the whole chunk as one lockstep batch.

    The chunk is pre-sorted by snapshot index, so every fault in it lies
    after the chunk-minimum snapshot — the whole batch resumes from that
    one snapshot (cold when -1/no store) with the later snapshots as
    convergence oracles for detached rows. ``tick`` reports the chunk once
    it is classified; the engine's :class:`~repro.vm.batch.BatchStats` are
    merged into ``stats`` when one is given.
    """
    faults = [FaultSite(iid, inst, bit).to_spec()
              for _pos, iid, inst, bit, _si in chunk]
    snap_index = chunk[0][4]
    snapshot = convergence = None
    if ctx.store is not None:
        if snap_index >= 0:
            snapshot = ctx.store.snapshots[snap_index]
        convergence = ctx.store.convergence_from(snap_index)
    results, st = run_trials_lockstep(
        ctx.program, faults, args=ctx.args, bindings=ctx.bindings,
        golden_output=ctx.golden_output, snapshot=snapshot,
        convergence=convergence, step_limit=ctx.golden_steps * 8 + 10_000,
    )
    if stats is not None:
        stats.merge(st)
    out = []
    for (pos, iid, _inst, _bit, _si), (r_out, trap) in zip(chunk, results):
        o = classify_run(ctx.golden_output, r_out, trap, ctx.rel_tol,
                         ctx.abs_tol)
        out.append((pos, iid, o.value))
    if tick is not None:
        tick(len(out))
    return out


#: Engine name → chunk runner ``(ctx, chunk, tick, stats) -> rows``.
_ENGINES = {"scalar": _run_chunk_scalar, "batch": _run_chunk_lockstep}


def _plan(sites: list[FaultSite], store: CheckpointStore | None,
          chunk_size: int) -> list[list[tuple]]:
    """Sites → chunks of ``(pos, iid, instance, bit, snap_index)`` rows.

    ``pos`` is the site's sampling position, which reassembly restores.
    """
    if store is None:
        snaps = [-1] * len(sites)
    else:
        snaps = [store.snapshot_index_for(s.iid, s.instance) for s in sites]
    order = sorted(
        range(len(sites)), key=lambda k: (snaps[k], sites[k].instance)
    )
    rows = [
        (k, sites[k].iid, sites[k].instance, sites[k].bit, snaps[k])
        for k in order
    ]
    return [
        rows[i : i + chunk_size] for i in range(0, len(rows), chunk_size)
    ]


def _reassemble(n: int, rows) -> list[tuple[int, Outcome]]:
    """``(pos, iid, outcome)`` rows → ``(iid, Outcome)`` in sampling order."""
    out: list = [None] * n
    for pos, iid, o in rows:
        out[pos] = (iid, Outcome(o))
    return out


def _run_chunk(ctx: _TrialContext, chunk, tick=None):
    """One chunk through its engine's runner, under an infra span."""
    with _span("chunk", {"trials": len(chunk)}, infra=True):
        return _ENGINES[ctx.engine](ctx, chunk, tick)


def _ensure_worker_obs(enabled: bool, span_root: str | None = None) -> bool:
    """Install (once) a metrics-only telemetry in this worker process.

    Returns whether a *worker* telemetry is collecting — ``False`` both when
    telemetry is off and when the chunk runs in-process in the parent, whose
    own session then counts the trials directly (no double accounting).
    ``span_root`` re-pins the parent span id each chunk so worker span
    subtrees attach under the currently dispatching campaign's span.
    """
    if not enabled:
        return False
    t = _obs_current()
    if t is None:
        install_worker(span_root)
        return True
    if t.is_worker:
        t.span_root = span_root
    return t.is_worker


def _batch_info(n_trials: int, t0: float) -> dict:
    """Per-chunk telemetry payload for the parent's reducer.

    A worker telemetry ships its drained metrics delta and span subtrees;
    in the parent both are ``None``, its session having counted directly.
    """
    t = _obs_current()
    worker = t is not None and t.is_worker
    return {
        "trials": n_trials,
        "seconds": time.perf_counter() - t0,
        "pid": os.getpid(),
        "metrics": t.metrics.drain() if worker else None,
        "spans": t.drain_spans() if worker else None,
    }


def _init_worker(module_text: str, *fields) -> None:
    """Per-process initializer: decode the program, pin the trial context.

    ``fields`` are the :class:`_TrialContext` fields after ``program``.
    """
    global _worker_ctx
    _worker_ctx = _TrialContext(_get_program(module_text), *fields)


def _worker_chunk(chunk):
    """Worker entry: one chunk → ((pos, iid, outcome)…, telemetry info)."""
    ctx = _worker_ctx
    collecting = _ensure_worker_obs(ctx.obs, ctx.span_root)
    t0 = time.perf_counter()
    rows = _run_chunk(ctx, chunk)
    return rows, (_batch_info(len(rows), t0) if collecting else None)


def _merge_batch_info(t, cid: str | None, info: dict | None, mode: str) -> None:
    """Parent side of the reducer: fold one chunk's telemetry into the run."""
    if t is None or info is None:
        return
    if info["metrics"]:
        t.metrics.merge(info["metrics"])
    for rec in info["spans"] or ():
        # Shipped worker spans re-home under the parent's run id; their
        # span/parent ids (``w{pid}-{n}``) are unique across the whole run.
        rec["run"] = t.run_id
        t.sink.write(rec)
    secs = info["seconds"]
    t.observe("fi.batch_seconds", secs)
    rate = info["trials"] / secs if secs > 0 else 0.0
    t.observe("fi.batch_trials_per_s", rate)
    t.emit(
        "campaign.batch",
        {
            "trials": info["trials"],
            "seconds": secs,
            "trials_per_s": rate,
            "pid": info["pid"],
            "mode": mode,
        },
        campaign=cid,
    )


def _execute(
    ctx: _TrialContext, chunks: list[list[tuple]], n_trials: int,
    workers: int, pool_factory, module_text: str | None, obs_label: str,
    cid: str | None, max_retries: int | None, task_timeout: float | None,
) -> list[tuple[int, Outcome]]:
    """Run planned chunks serially or pooled; reassemble in sampling order.

    A campaign runs in-process unless a fabric ``pool_factory`` is set or
    it has at least two workers, 32 trials and two chunks. The pooled path
    ships ``module_text`` (printed here when the caller has none) to each
    worker once, through the initializer.
    """
    t = _obs_current()
    rep = t.progress_for(obs_label, n_trials) if t is not None else None
    if pool_factory is None and (
        workers <= 1 or n_trials < 32 or len(chunks) < 2
    ):
        t0 = time.perf_counter()
        tick = rep.update if rep is not None else None
        with progress_scope(rep):
            rows = [r for chunk in chunks for r in _run_chunk(ctx, chunk, tick)]
        if t is not None:
            _merge_batch_info(t, cid, _batch_info(n_trials, t0), "serial")
        return _reassemble(n_trials, rows)
    if module_text is None:
        module_text = print_module(ctx.program.module)
    ctx = ctx._replace(
        obs=t is not None, span_root=t.current_span() if t is not None else None
    )

    def on_result(res) -> None:
        rows, info = res
        _merge_batch_info(t, cid, info, "worker")
        if rep is not None:
            rep.update(len(rows))

    with progress_scope(rep):
        out = parallel_map(
            _worker_chunk, chunks, workers=max(1, workers),
            initializer=_init_worker, initargs=(module_text, *ctx[1:]),
            on_result=on_result, max_retries=max_retries,
            task_timeout=task_timeout, pool_factory=pool_factory,
        )
    return _reassemble(n_trials, (r for rows, _info in out for r in rows))


def _resolve_store(
    program: Program, args, bindings, profile: DynamicProfile,
    checkpoint_interval, checkpoints: CheckpointStore | None,
) -> CheckpointStore | None:
    """Normalize the checkpointing request of a campaign entry point.

    Precedence: an explicit pre-recorded ``checkpoints`` store wins;
    otherwise ``checkpoint_interval`` selects recording (``"auto"`` applies
    :func:`~repro.vm.checkpoint.auto_interval` to the golden step count, a
    positive int is taken literally, ``None``/``0`` keeps the cold path).
    """
    if checkpoints is not None:
        return checkpoints
    if checkpoint_interval in (None, 0):
        return None
    if checkpoint_interval == "auto":
        interval = None
    else:
        interval = int(checkpoint_interval)
    return record_checkpoints(
        program, args=args, bindings=bindings, interval=interval,
        steps_hint=profile.steps,
    )


def _campaign(
    program: Program, sites: list[FaultSite], store: CheckpointStore | None,
    profile: DynamicProfile, args, bindings, rel_tol: float, abs_tol: float,
    *, label: str, obs_label: str, begin: dict, module_text: str | None,
    workers: int | None, engine: str | None, batch_size: int | None,
    transport: str | None, max_retries: int | None,
    task_timeout: float | None,
) -> tuple[list[tuple[int, Outcome]], OutcomeCounts]:
    """The shared body of both entry points: run ``sites``, return
    ``(per_fault, counts)`` with ``per_fault`` in sampling order.

    ``engine``/``batch_size`` default through :func:`resolve_engine` /
    :func:`resolve_batch_size` (explicit > ``engine_scope`` >
    ``REPRO_ENGINE``/``REPRO_BATCH_SIZE`` > scalar). ``transport`` selects
    the dispatch fabric the same way (explicit > ``fabric_scope`` >
    ``REPRO_FABRIC_TRANSPORT`` > ``local``): anything but ``local`` swaps
    the process pool for transport-backed adapters
    (:mod:`repro.fabric.harness`) behind the same supervisor. Like the
    engine and the worker count, the transport is an execution strategy,
    never part of a cache key: every combination produces bit-identical
    outcome lists. ``begin`` holds the entry point's own ``campaign.begin``
    fields.
    """
    from repro.fabric.harness import resolve_fabric

    engine = resolve_engine(engine)
    t = _obs_current()
    cid = t.new_campaign() if t is not None else None
    if t is not None:
        t.emit(
            "campaign.begin",
            {
                "label": label,
                "trials": len(sites),
                **begin,
                "checkpointed": store is not None,
                "engine": engine,
            },
            campaign=cid,
        )
    t0 = time.perf_counter()
    with _span(
        "campaign",
        {"label": label, "trials": len(sites), "engine": engine},
        campaign=cid,
    ):
        workers = resolve_workers(workers)
        _kind, pool_factory = resolve_fabric(transport)
        if engine == "batch":
            chunk_size = resolve_batch_size(batch_size)
        else:
            chunk_size = max(8, len(sites) // (max(1, workers) * 4))
        ctx = _TrialContext(
            program, store, profile.output, profile.steps, args, bindings,
            rel_tol, abs_tol, engine,
        )
        per_fault = _execute(
            ctx, _plan(sites, store, chunk_size), len(sites), workers,
            pool_factory, module_text, obs_label, cid, max_retries,
            task_timeout,
        )
    counts = OutcomeCounts()
    for _, o in per_fault:
        counts.record(o)
    if t is not None:
        _note_campaign(
            t, cid, label, counts, len(sites), time.perf_counter() - t0
        )
    return per_fault, counts


def _note_campaign(
    t, cid: str | None, label: str, counts: OutcomeCounts, trials: int,
    seconds: float,
) -> None:
    """Fold a finished campaign into counters and emit ``campaign.end``."""
    outcomes = {o.value: n for o, n in counts.counts.items() if n}
    t.count("fi.campaigns")
    t.count("fi.trials", trials)
    for name, n in outcomes.items():
        t.count(f"fi.outcome.{name}", n)
    t.emit(
        "campaign.end",
        {
            "label": label,
            "trials": trials,
            "outcomes": outcomes,
            "seconds": seconds,
            "trials_per_s": trials / seconds if seconds > 0 else 0.0,
        },
        campaign=cid,
    )


# ---------------------------------------------------------------------------
# Campaign cache adapters: payload encode/decode around the entry points.
# Lookup and write-back happen in the parent, around the whole campaign, so
# workers never touch the store and caching composes freely with pooling and
# checkpoint-resume. Decoders are defensive: any malformed payload reads as a
# miss (the campaign recomputes), never an exception or a wrong result.
# ---------------------------------------------------------------------------


def _cache_for(cache):
    """Resolve the ``cache`` argument of an entry point to a store or None.

    ``None`` (the default) defers to the installed/ambient cache,
    ``False`` disables caching for this call, and an explicit
    :class:`~repro.cache.CampaignCache` is used as given.
    """
    if cache is False:
        return None
    if cache is None:
        return active_cache()
    return cache


def _note_cache_hit(label: str, key: str, trials: int) -> None:
    t = _obs_current()
    if t is not None:
        t.emit("cache.hit", {"label": label, "key": key, "trials": trials})


def _encode_campaign(result: CampaignResult) -> dict:
    return {
        "kind": "whole-program",
        "trials": result.trials,
        "per_fault": [[iid, o.value] for iid, o in result.per_fault],
    }


def _decode_campaign(payload: dict | None) -> CampaignResult | None:
    if not isinstance(payload, dict) or payload.get("kind") != "whole-program":
        return None
    try:
        per_fault = [
            (int(iid), Outcome(o)) for iid, o in payload["per_fault"]
        ]
        trials = int(payload["trials"])
    except (KeyError, TypeError, ValueError):
        return None
    if trials != len(per_fault):
        return None
    counts = OutcomeCounts()
    for _, o in per_fault:
        counts.record(o)
    return CampaignResult(counts=counts, per_fault=per_fault, trials=trials)


def _encode_per_instruction(result: PerInstructionResult) -> dict:
    return {
        "kind": "per-instruction",
        "trials_per_instruction": result.trials_per_instruction,
        "per_iid": [
            [iid, {o.value: n for o, n in c.counts.items() if n}]
            for iid, c in result.per_iid.items()
        ],
    }


def _decode_per_instruction(
    payload: dict | None, profile: DynamicProfile
) -> PerInstructionResult | None:
    if not isinstance(payload, dict) or payload.get("kind") != "per-instruction":
        return None
    try:
        per_iid: dict[int, OutcomeCounts] = {}
        for iid, tally in payload["per_iid"]:
            counts = OutcomeCounts()
            for name, n in tally.items():
                counts.counts[Outcome(name)] = int(n)
            per_iid[int(iid)] = counts
        trials = int(payload["trials_per_instruction"])
    except (KeyError, TypeError, ValueError):
        return None
    return PerInstructionResult(
        per_iid=per_iid, profile=profile, trials_per_instruction=trials
    )


# ---------------------------------------------------------------------------
# Public campaign entry points
# ---------------------------------------------------------------------------


def run_campaign(
    program: Program,
    n_faults: int,
    seed: int,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    workers: int | None = 0,
    profile: DynamicProfile | None = None,
    checkpoint_interval: int | str | None = None,
    checkpoints: CheckpointStore | None = None,
    cache=None,
    max_retries: int | None = None,
    task_timeout: float | None = None,
    engine: str | None = None,
    batch_size: int | None = None,
    transport: str | None = None,
) -> CampaignResult:
    """Whole-program campaign: ``n_faults`` uniform dynamic-instance flips.

    Pass a pre-computed golden ``profile`` to skip the profiling run (the
    pipelines reuse one profile across many campaigns on the same input).
    ``checkpoint_interval`` (``"auto"`` or a step count) turns on
    checkpoint-resumed trials — bit-identical outcomes, a fraction of the
    replay; a pre-recorded ``checkpoints`` store skips even the recording
    run. ``workers=None`` defers to the ``REPRO_WORKERS`` environment.
    ``cache`` controls result caching (see :func:`_cache_for`); a hit
    returns a bit-identical result without profiling or injecting.
    ``max_retries``/``task_timeout`` tune the pooled path's supervisor
    (worker crash/hang recovery; ``None`` defers to ``REPRO_MAX_RETRIES``
    / ``REPRO_TASK_TIMEOUT``) and never affect results — a supervised
    campaign is bit-identical to a serial one or raises a
    :class:`~repro.errors.HarnessError`, never returns partial data.
    ``engine``/``batch_size`` select the trial executor (``"batch"``
    vectorizes trials in lockstep, same outcomes bit-for-bit; ``None``
    defers to ``engine_scope``/``REPRO_ENGINE``) — like the worker count,
    they never enter cache keys. ``transport`` selects the dispatch fabric
    (``None`` defers to ``fabric_scope``/``REPRO_FABRIC_TRANSPORT``; see
    :func:`_campaign`) — also an execution strategy with no effect on
    results or cache keys.
    """
    store_cache = _cache_for(cache)
    module_text = key = None
    if store_cache is not None:
        module_text = print_module(program.module)
        key = whole_program_key(
            module_text, args, bindings, rel_tol, abs_tol, n_faults, seed,
        )
        cached = _decode_campaign(store_cache.get(key))
        if cached is not None:
            _note_cache_hit("fi.whole-program", key, cached.trials)
            return cached
    if profile is None:
        profile = profile_run(program, args=args, bindings=bindings)
    store = _resolve_store(
        program, args, bindings, profile, checkpoint_interval, checkpoints
    )
    rng = RngStream(seed, "campaign")
    sites = sample_fault_sites(program.module, profile, n_faults, rng)
    per_fault, counts = _campaign(
        program, sites, store, profile, args, bindings, rel_tol, abs_tol,
        label="fi.whole-program", obs_label="fi campaign",
        begin={"seed": seed}, module_text=module_text, workers=workers,
        engine=engine, batch_size=batch_size, transport=transport,
        max_retries=max_retries, task_timeout=task_timeout,
    )
    result = CampaignResult(
        counts=counts, per_fault=per_fault, trials=len(sites)
    )
    # Publish only fully classified outcome sets: a failed campaign raises
    # before this point, and the length check is the belt-and-braces guard
    # against any future executor returning partial results.
    if store_cache is not None and len(per_fault) == len(sites):
        store_cache.put(key, _encode_campaign(result))
    return result


def run_per_instruction_campaign(
    program: Program,
    trials_per_instruction: int,
    seed: int,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    workers: int | None = 0,
    profile: DynamicProfile | None = None,
    only_iids: list[int] | None = None,
    checkpoint_interval: int | str | None = None,
    checkpoints: CheckpointStore | None = None,
    cache=None,
    max_retries: int | None = None,
    task_timeout: float | None = None,
    engine: str | None = None,
    batch_size: int | None = None,
    transport: str | None = None,
) -> PerInstructionResult:
    """Per-instruction campaign over every executed injectable instruction.

    ``only_iids`` restricts the sweep (used by incremental passes that only
    need a subset re-measured). ``checkpoint_interval``/``checkpoints``,
    ``workers``, and ``max_retries``/``task_timeout`` behave as in
    :func:`run_campaign` — per-instruction sweeps replay the golden prefix
    hardest (trials × instructions), so they gain the most from checkpoint
    resume. ``cache`` behaves as in :func:`run_campaign`; on a hit only the
    golden profile is (re)computed — and even that is skipped when the
    caller supplies one.
    """
    module = program.module
    targets = only_iids if only_iids is not None else injectable_iids(module)
    store_cache = _cache_for(cache)
    module_text = key = None
    if store_cache is not None:
        module_text = print_module(module)
        key = per_instruction_key(
            module_text, args, bindings, rel_tol, abs_tol,
            trials_per_instruction, seed, targets,
        )
        payload = store_cache.get(key)
        if payload is not None:
            if profile is None:
                profile = profile_run(program, args=args, bindings=bindings)
            cached = _decode_per_instruction(payload, profile)
            if cached is not None:
                trials = sum(c.total for c in cached.per_iid.values())
                _note_cache_hit("fi.per-instruction", key, trials)
                return cached
    if profile is None:
        profile = profile_run(program, args=args, bindings=bindings)
    store = _resolve_store(
        program, args, bindings, profile, checkpoint_interval, checkpoints
    )
    rng = RngStream(seed, "per-instr")
    all_sites: list[FaultSite] = []
    for iid in targets:
        all_sites.extend(
            sample_per_instruction_sites(
                module, profile, iid, trials_per_instruction, rng.child(iid)
            )
        )
    per_fault, _counts = _campaign(
        program, all_sites, store, profile, args, bindings, rel_tol, abs_tol,
        label="fi.per-instruction", obs_label="per-instruction fi",
        begin={
            "seed": seed,
            "n_iids": len(targets),
            "trials_per_instruction": trials_per_instruction,
        },
        module_text=module_text, workers=workers, engine=engine,
        batch_size=batch_size, transport=transport,
        max_retries=max_retries, task_timeout=task_timeout,
    )
    per_iid: dict[int, OutcomeCounts] = {}
    for iid, o in per_fault:
        per_iid.setdefault(iid, OutcomeCounts()).record(o)
    result = PerInstructionResult(
        per_iid=per_iid,
        profile=profile,
        trials_per_instruction=trials_per_instruction,
    )
    # As in run_campaign: only a fully classified sweep may be published —
    # harness failures raise above, so a partial per_iid never reaches here.
    if store_cache is not None and len(per_fault) == len(all_sites):
        store_cache.put(key, _encode_per_instruction(result))
    return result


# ---------------------------------------------------------------------------
# Model-guided (hybrid) campaigns: predict with the static error-propagation
# model, spend FI trials only where the prediction could change the
# protected set (near the knapsack cut), and keep model probabilities for
# the long tail. Imported lazily-by-layer: repro.analysis depends on
# repro.fi.faultmodel only, so this direction introduces no cycle.
# ---------------------------------------------------------------------------


@dataclass
class HybridResult:
    """Predict-then-verify outcome: FI where it matters, model elsewhere.

    Duck-typed like :class:`PerInstructionResult` (``sdc_probability`` /
    ``sdc_probabilities`` / ``profile``), plus per-iid ``provenance`` so
    profiles and results can label which probabilities were verified.
    """

    sdc_prob: dict[int, float]
    #: ``"fi"`` for verified iids, ``"model"`` for predicted-only ones.
    provenance: dict[int, str]
    profile: DynamicProfile
    trials_per_instruction: int
    #: FI trials actually spent vs. what a full sweep would have cost.
    fi_trials: int = 0
    full_sweep_trials: int = 0

    def sdc_probability(self, iid: int) -> float:
        return self.sdc_prob.get(iid, 0.0)

    def sdc_probabilities(self) -> dict[int, float]:
        return dict(self.sdc_prob)

    @property
    def trials_saved_factor(self) -> float:
        """How many times cheaper than a full per-instruction sweep."""
        if self.fi_trials <= 0:
            return float("inf") if self.full_sweep_trials else 1.0
        return self.full_sweep_trials / self.fi_trials


def run_model_guided_campaign(
    program: Program,
    trials_per_instruction: int,
    seed: int,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    workers: int | None = 0,
    profile: DynamicProfile | None = None,
    protection_levels: tuple[float, ...] = (0.3, 0.5, 0.7),
    verify_margin: float = 0.3,
    checkpoint_interval: int | str | None = None,
    checkpoints: CheckpointStore | None = None,
    cache=None,
    max_retries: int | None = None,
    task_timeout: float | None = None,
    masking=None,
    engine: str | None = None,
    batch_size: int | None = None,
    transport: str | None = None,
) -> HybridResult:
    """Hybrid campaign: model predictions, FI-verified near the cut.

    The static model ranks every executed injectable instruction; the
    knapsack's would-be selections at each ``protection_levels`` budget,
    widened by ``verify_margin``, form the verify set — the only
    instructions whose trials can change what gets protected. Those run
    through the ordinary (cached, checkpointed, pooled)
    :func:`run_per_instruction_campaign`; everything else keeps its model
    probability. Deterministic in (program, input, seed, model constants):
    the verify set derives from the golden profile and the model alone, so
    the FI subset — and its cache key — is stable across runs and workers.
    """
    from repro.analysis.masking import DEFAULT_MASKING
    from repro.analysis.model import (
        density_ranked,
        model_verify_set,
        predict_sdc_probabilities,
    )

    if masking is None:
        masking = DEFAULT_MASKING
    module = program.module
    if profile is None:
        profile = profile_run(program, args=args, bindings=bindings)
    predicted = predict_sdc_probabilities(
        module, profile, rel_tol=rel_tol, masking=masking, cache=cache
    )
    cycles = {
        iid: profile.instr_cycles[iid] for iid in injectable_iids(module)
    }
    total_cycles = profile.total_cycles
    verify: set[int] = set()
    for level in protection_levels:
        verify.update(
            model_verify_set(
                predicted, cycles, total_cycles, level, verify_margin
            )
        )
    verify_iids = sorted(verify)
    executed = [
        iid for iid in injectable_iids(module) if profile.instr_counts[iid] > 0
    ]
    t = _obs_current()
    if t is not None:
        t.count("model.hybrid_verified", len(verify_iids))
        t.count("model.hybrid_model_only", len(executed) - len(verify_iids))
    fi = run_per_instruction_campaign(
        program,
        trials_per_instruction,
        seed,
        args=args,
        bindings=bindings,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        workers=workers,
        profile=profile,
        only_iids=verify_iids,
        checkpoint_interval=checkpoint_interval,
        checkpoints=checkpoints,
        cache=cache,
        max_retries=max_retries,
        task_timeout=task_timeout,
        engine=engine,
        batch_size=batch_size,
        transport=transport,
    )
    # Merge, keeping the ranking consistent across the verified band.
    # The model's flanks stay unverified on purpose (far above the cut is
    # protected either way, far below stays out), but their raw
    # predictions live on a different scale than the band's measurements,
    # so pin them to the band's extremes: the upper flank may not rank
    # below any measurement (clamp to the measured ceiling) and the lower
    # flank may not rank above one (monotone squash under the measured
    # floor). Gap iids between bands of different levels keep raw
    # predictions.
    ranked = density_ranked(predicted, cycles, total_cycles)
    pos = {iid: k for k, iid in enumerate(ranked)}
    vpos = [pos[i] for i in verify_iids if i in pos]
    lo_pos = min(vpos) if vpos else 0
    hi_pos = max(vpos) if vpos else -1
    ceiling = max(
        (fi.sdc_probability(i) for i in verify_iids), default=1.0
    )
    floor = min(
        (fi.sdc_probability(i) for i in verify_iids), default=0.0
    )
    tail_max = max(
        (
            predicted.sdc_prob[iid]
            for iid, k in pos.items()
            if k > hi_pos and iid not in verify
        ),
        default=0.0,
    )
    squash = floor / tail_max if tail_max > floor else 1.0
    merged: dict[int, float] = {}
    provenance: dict[int, str] = {}
    for iid, p in predicted.sdc_prob.items():
        if iid in verify:
            merged[iid] = fi.sdc_probability(iid)
            provenance[iid] = "fi"
            continue
        provenance[iid] = "model"
        k = pos.get(iid)
        if k is None:
            merged[iid] = p  # never executed; predicted 0 already
        elif k < lo_pos:
            merged[iid] = max(p, ceiling)
        elif k > hi_pos:
            merged[iid] = p * squash
        else:
            merged[iid] = min(max(p, floor), ceiling)
    result = HybridResult(
        sdc_prob=merged,
        provenance=provenance,
        profile=profile,
        trials_per_instruction=trials_per_instruction,
        fi_trials=len(verify_iids) * trials_per_instruction,
        full_sweep_trials=len(executed) * trials_per_instruction,
    )
    if t is not None:
        t.emit(
            "model.hybrid",
            {
                "n_verified": len(verify_iids),
                "n_model_only": len(executed) - len(verify_iids),
                "fi_trials": result.fi_trials,
                "full_sweep_trials": result.full_sweep_trials,
                "trials_saved_factor": result.trials_saved_factor,
                "protection_levels": list(protection_levels),
                "verify_margin": verify_margin,
            },
        )
    return result
