"""The campaign executor: one plan → run_chunk → reassemble pipeline.

Every engine (scalar, lockstep batch), checkpoint mode (cold, ``"auto"``)
and dispatch (serial, a local pool, fabric transports) runs the same
planned chunks through the same chunk runners, so both campaign entry
points must return exactly the cold scalar serial oracle's outcomes.
"""

from __future__ import annotations

import pytest

from repro.fabric.harness import fabric_scope
from repro.fi import campaign
from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.ir import print_module
from repro.obs.core import session
from repro.obs.sink import MemorySink

from tests.conftest import cached_app

FAULTS = 48
TRIALS_PER_IID = 1
SEED = 5
#: Small enough that pooled batch campaigns really split into chunks.
BATCH_SIZE = 16


@pytest.fixture(scope="module")
def needle():
    return cached_app("needle")


def _run(app, entry, **kw):
    a, b = app.encode(app.reference_input)
    common = dict(
        args=a, bindings=b, rel_tol=app.rel_tol, abs_tol=app.abs_tol,
        cache=False, batch_size=BATCH_SIZE, **kw,
    )
    if entry == "whole":
        return run_campaign(app.program, FAULTS, SEED, **common).per_fault
    res = run_per_instruction_campaign(
        app.program, TRIALS_PER_IID, SEED, **common
    )
    return res.per_iid


@pytest.fixture(scope="module")
def oracle(needle):
    return {
        entry: _run(needle, entry, workers=0, engine="scalar")
        for entry in ("whole", "per-iid")
    }


def _traced(app, entry, dispatch, **kw):
    """Run one campaign under a trace; return outcomes and batch modes."""
    sink = MemorySink()
    transport = {"serial": None, "pool": None}.get(dispatch, dispatch)
    workers = 0 if dispatch == "serial" else 2
    with session(sink=sink), fabric_scope(transport):
        got = _run(app, entry, workers=workers, **kw)
    modes = [
        r["fields"]["mode"] for r in sink.records
        if r["name"] == "campaign.batch"
    ]
    return got, modes


@pytest.mark.parametrize("entry", ["whole", "per-iid"])
@pytest.mark.parametrize("dispatch", ["serial", "pool", "inproc"])
@pytest.mark.parametrize("checkpoint", [None, "auto"])
@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_matches_cold_scalar_serial_oracle(
    needle, oracle, engine, checkpoint, dispatch, entry
):
    got, modes = _traced(
        needle, entry, dispatch, engine=engine,
        checkpoint_interval=checkpoint,
    )
    assert got == oracle[entry]
    if dispatch == "serial":
        assert modes == ["serial"]
    elif dispatch == "pool":
        # The pool really ran: one worker record per chunk, none serial.
        assert len(modes) >= 2 and set(modes) == {"worker"}


@pytest.mark.parametrize("entry", ["whole", "per-iid"])
def test_checkpointed_batch_over_socketpair(needle, oracle, entry):
    got, modes = _traced(
        needle, entry, "socketpair", engine="batch",
        checkpoint_interval="auto",
    )
    assert got == oracle[entry]
    assert len(modes) >= 2 and set(modes) == {"worker"}


def test_program_cache_compares_text_not_hash(monkeypatch):
    """Two modules whose texts hash alike still get their own Program."""
    monkeypatch.setattr(campaign, "hash", lambda _obj: 0, raising=False)
    monkeypatch.setattr(campaign, "_worker_program", None, raising=False)
    first = print_module(cached_app("needle").module)
    second = print_module(cached_app("pathfinder").module)
    p1 = campaign._get_program(first)
    p2 = campaign._get_program(second)
    assert p1 is not p2
    assert print_module(p2.module) == second
    assert campaign._get_program(second) is p2  # same text: reused
