"""FI throughput measurement: cold vs. checkpoint-resumed campaigns.

The throughput bench (``benchmarks/test_perf_fi_throughput.py`` and
``scripts/bench_fi.py``) uses this module to measure injections/sec of the
two campaign engines on identical seeded fault lists, assert bit-identical
outcomes, and emit a JSON record so the perf trajectory is tracked across
PRs. It lives outside ``repro.fi.__init__``'s export surface because it
imports the app registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.apps import get_app
from repro.fi.campaign import (
    _ENGINES,
    CampaignResult,
    _plan,
    _reassemble,
    _TrialContext,
    run_campaign,
)
from repro.fi.faultmodel import sample_fault_sites
from repro.util.rng import RngStream
from repro.vm.batch import BatchStats, resolve_batch_size
from repro.vm.checkpoint import auto_interval
from repro.vm.profiler import profile_run

__all__ = [
    "ThroughputReport",
    "measure_fi_throughput",
    "BatchThroughputReport",
    "measure_batch_throughput",
]


@dataclass
class ThroughputReport:
    """One app's cold-vs-checkpointed campaign measurement."""

    app: str
    n_faults: int
    seed: int
    golden_steps: int
    checkpoint_interval: int
    workers: int
    cold_seconds: float
    checkpointed_seconds: float
    #: Did both engines classify every fault identically (they must)?
    identical: bool = True
    outcomes: dict = field(default_factory=dict)

    @property
    def cold_injections_per_sec(self) -> float:
        return self.n_faults / self.cold_seconds if self.cold_seconds else 0.0

    @property
    def checkpointed_injections_per_sec(self) -> float:
        s = self.checkpointed_seconds
        return self.n_faults / s if s else 0.0

    @property
    def speedup(self) -> float:
        if not self.checkpointed_seconds:
            return 0.0
        return self.cold_seconds / self.checkpointed_seconds

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "n_faults": self.n_faults,
            "seed": self.seed,
            "golden_steps": self.golden_steps,
            "checkpoint_interval": self.checkpoint_interval,
            "workers": self.workers,
            "cold_seconds": self.cold_seconds,
            "checkpointed_seconds": self.checkpointed_seconds,
            "cold_injections_per_sec": self.cold_injections_per_sec,
            "checkpointed_injections_per_sec": (
                self.checkpointed_injections_per_sec
            ),
            "speedup": self.speedup,
            "identical": self.identical,
            "outcomes": self.outcomes,
        }


def measure_fi_throughput(
    app_name: str,
    n_faults: int = 200,
    seed: int = 2022,
    checkpoint_interval: int | str = "auto",
    workers: int = 0,
    repeats: int = 1,
) -> ThroughputReport:
    """Run the same seeded whole-program campaign cold and checkpointed.

    Both runs share one golden profile (as the experiment pipelines do), so
    the measurement isolates trial execution plus, for the checkpointed
    side, the snapshot-recording run — the honest end-to-end cost a user
    pays. The two ``per_fault`` lists are compared for the bit-identity
    guarantee. With ``repeats > 1`` each engine runs that many times and
    the best (minimum) wall time is reported; campaigns here take fractions
    of a second, so a single scheduler hiccup otherwise dominates the ratio.
    """
    app = get_app(app_name)
    args, bindings = app.encode(app.reference_input)
    program = app.program
    profile = profile_run(program, args=args, bindings=bindings)
    common = dict(
        args=args,
        bindings=bindings,
        rel_tol=app.rel_tol,
        abs_tol=app.abs_tol,
        profile=profile,
    )
    repeats = max(1, repeats)

    cold_seconds = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        cold: CampaignResult = run_campaign(
            program, n_faults, seed=seed, workers=0, **common
        )
        cold_seconds = min(cold_seconds, time.perf_counter() - t0)

    checkpointed_seconds = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        ckpt: CampaignResult = run_campaign(
            program,
            n_faults,
            seed=seed,
            workers=workers,
            checkpoint_interval=checkpoint_interval,
            **common,
        )
        checkpointed_seconds = min(
            checkpointed_seconds, time.perf_counter() - t0
        )

    if checkpoint_interval == "auto":
        interval = auto_interval(profile.steps)
    else:
        interval = int(checkpoint_interval)
    return ThroughputReport(
        app=app_name,
        n_faults=n_faults,
        seed=seed,
        golden_steps=profile.steps,
        checkpoint_interval=interval,
        workers=workers,
        cold_seconds=cold_seconds,
        checkpointed_seconds=checkpointed_seconds,
        identical=cold.per_fault == ckpt.per_fault,
        outcomes={o.value: n for o, n in cold.counts.counts.items()},
    )


@dataclass
class BatchThroughputReport:
    """One app's scalar-vs-lockstep-batch cold-campaign measurement."""

    app: str
    n_faults: int
    seed: int
    golden_steps: int
    batch_size: int
    scalar_seconds: float
    batch_seconds: float
    #: Did both engines classify every fault identically (they must)?
    identical: bool = True
    #: Rows that left lockstep for a scalar tail, over all trials.
    detached: int = 0
    #: Divergent branch rows that rejoined the mirror instead of detaching.
    reconverged: int = 0
    #: Fraction of trial-instructions executed inside the shared mirror.
    lockstep_occupancy: float = 1.0
    outcomes: dict = field(default_factory=dict)

    @property
    def scalar_injections_per_sec(self) -> float:
        s = self.scalar_seconds
        return self.n_faults / s if s else 0.0

    @property
    def batch_injections_per_sec(self) -> float:
        s = self.batch_seconds
        return self.n_faults / s if s else 0.0

    @property
    def speedup(self) -> float:
        if not self.batch_seconds:
            return 0.0
        return self.scalar_seconds / self.batch_seconds

    @property
    def detach_rate(self) -> float:
        return self.detached / self.n_faults if self.n_faults else 0.0

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "n_faults": self.n_faults,
            "seed": self.seed,
            "golden_steps": self.golden_steps,
            "batch_size": self.batch_size,
            "scalar_seconds": self.scalar_seconds,
            "batch_seconds": self.batch_seconds,
            "scalar_injections_per_sec": self.scalar_injections_per_sec,
            "batch_injections_per_sec": self.batch_injections_per_sec,
            "speedup": self.speedup,
            "detached": self.detached,
            "detach_rate": self.detach_rate,
            "reconverged": self.reconverged,
            "lockstep_occupancy": self.lockstep_occupancy,
            "identical": self.identical,
            "outcomes": self.outcomes,
        }


def measure_batch_throughput(
    app_name: str,
    n_faults: int = 512,
    seed: int = 2022,
    batch_size: int | None = None,
    repeats: int = 1,
    batch_repeats: int | None = None,
) -> BatchThroughputReport:
    """Time one seeded fault list through the scalar and batch executors.

    Both timings are *cold* (no checkpoint store) and run the exact fault
    list a ``run_campaign(n_faults, seed)`` would sample, so the ratio is
    the honest per-trial speedup of lockstep vectorization — checkpoint
    resume composes on top and is measured separately by
    :func:`measure_fi_throughput`. Both sides time the chunk runners a
    campaign itself dispatches to (:mod:`repro.fi.campaign`'s engine
    table) over the campaign's own plan of that list: the scalar runner
    as one chunk, the lockstep runner in ``batch_size``-wide chunks. The
    two outcome sequences, in sampling order, are compared element-wise
    for the bit-identity guarantee. Detach/reconverge counts
    and lockstep occupancy come from the engine's own
    :class:`~repro.vm.batch.BatchStats`.

    ``repeats`` times each side best-of-N; ``batch_repeats`` (default
    ``repeats``) can raise the batch side's count separately — a batch
    pass is ~20x shorter than the scalar pass, so one scheduler hiccup
    skews its minimum far more, and extra batch repeats are nearly free.
    """
    app = get_app(app_name)
    args, bindings = app.encode(app.reference_input)
    program = app.program
    profile = profile_run(program, args=args, bindings=bindings)
    rng = RngStream(seed, "campaign")
    sites = sample_fault_sites(program.module, profile, n_faults, rng)
    width = resolve_batch_size(batch_size)
    repeats = max(1, repeats)
    ctx = _TrialContext(
        program, None, profile.output, profile.steps, args, bindings,
        app.rel_tol, app.abs_tol,
    )

    def timed(engine: str, chunk_size: int, runs: int):
        """Best-of-``runs`` seconds, sampling-order outcomes, last stats."""
        chunks = _plan(sites, None, chunk_size)
        best = float("inf")
        for _ in range(runs):
            stats = BatchStats()
            t0 = time.perf_counter()
            rows = [
                r for chunk in chunks
                for r in _ENGINES[engine](ctx, chunk, stats=stats)
            ]
            best = min(best, time.perf_counter() - t0)
        return best, [o for _iid, o in _reassemble(len(sites), rows)], stats

    scalar_seconds, scalar, _ = timed("scalar", max(1, len(sites)), repeats)
    batch_seconds, batched, stats = timed(
        "batch", width, max(1, batch_repeats or repeats)
    )

    counts: dict[str, int] = {}
    for o in scalar:
        counts[o.value] = counts.get(o.value, 0) + 1
    return BatchThroughputReport(
        app=app_name,
        n_faults=n_faults,
        seed=seed,
        golden_steps=profile.steps,
        batch_size=width,
        scalar_seconds=scalar_seconds,
        batch_seconds=batch_seconds,
        identical=scalar == batched,
        detached=stats.detached,
        reconverged=stats.reconverged,
        lockstep_occupancy=stats.occupancy(),
        outcomes=counts,
    )
