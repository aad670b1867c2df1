"""The multi-detector protection transform.

Generalization of the paper's duplication+check pass (⑨ in Fig. 4) to a
*plan* of per-instruction detector assignments: each selected instruction is
protected by exactly one detector — full duplication ("dup", checks flushed
before the next synchronization point or immediately, as in classic SID),
store-only duplication ("store", the comparison is deferred to the next
memory store in the block and silently dropped if none follows — the SWIFT
trade), or a mined range invariant ("range", a ``checkrange`` against
golden-run bounds) — plus an optional module-level algorithm checksum that
sums named global arrays before every return of ``@main`` and traps when the
sum leaves its golden band.

Classic SID's duplication is the all-"dup" plan with sync placement:
:func:`duplicate_instructions` builds that plan and runs this pass, so
classic SID and the detector zoo share one code path by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.ir.builder import Builder
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.types import F64, VOID
from repro.ir.values import Constant

__all__ = [
    "PlanAction",
    "ChecksumSpec",
    "ProtectedModule",
    "apply_plan",
    "duplicate_instructions",
    "CHECKSUM_FN",
]

#: Name of the synthesized checksum function.
CHECKSUM_FN = "__checksum"

#: Detector kinds a plan may assign to one instruction.
PLAN_KINDS = ("dup", "store", "range")


@dataclass(frozen=True)
class PlanAction:
    """One instruction's detector assignment.

    ``kind`` is one of :data:`PLAN_KINDS`. ``placement`` applies to "dup"
    only ("sync" or "immediate"); ``lo``/``hi`` are the inclusive bounds of
    a "range" action (in the instruction's own value domain).
    """

    kind: str
    placement: str = "sync"
    lo: int | float | None = None
    hi: int | float | None = None


@dataclass(frozen=True)
class ChecksumSpec:
    """Module-level checksum over F64 global arrays.

    ``golden`` is the expected sum on the build input; ``band`` widens the
    accepted interval to ``[golden - band, golden + band]``. With
    ``probe=True`` the transform emits the sum to the output stream instead
    of checking it — the mining mode used to learn ``golden``.
    """

    globals_: tuple[str, ...]
    golden: float = 0.0
    band: float = 0.0
    probe: bool = False


@dataclass
class ProtectedModule:
    """A protected program plus the bookkeeping to reason about it."""

    module: Module
    #: Original iid -> iid in the protected module (original instructions).
    iid_map: dict[int, int]
    #: Original iid -> iid of its duplicate in the protected module.
    dup_map: dict[int, int]
    #: Number of check instructions inserted.
    checks: int = 0
    #: The original-module iids that were protected.
    protected_iids: list[int] = field(default_factory=list)
    #: Original iid -> detector kind ("dup", "store", "range", ...).
    detectors: dict[int, str] = field(default_factory=dict)
    #: Number of ``checkrange`` invariant checks inserted.
    range_checks: int = 0
    #: Store-only pairs whose block had no following store (never verified).
    dropped_pairs: int = 0
    #: True when a module-level checksum function was synthesized.
    has_checksum: bool = False

    def origin_of(self, new_iid: int) -> int | None:
        """Map a protected-module iid back to the original-module iid.

        Duplicate instructions map to the instruction they shadow; check
        instructions map to ``None``.
        """
        instr = self.module.instruction(new_iid)
        if instr.opcode in ("check", "checkrange"):
            return None
        if instr.origin is not None:
            return instr.origin
        return self._reverse().get(new_iid)

    def _reverse(self) -> dict[int, int]:
        rev = getattr(self, "_rev_cache", None)
        if rev is None:
            rev = {new: old for old, new in self.iid_map.items()}
            object.__setattr__(self, "_rev_cache", rev)
        return rev


def _make_check(orig: Instruction, dup: Instruction, blk) -> Instruction:
    chk = Instruction(
        "check",
        VOID,
        [orig, dup],
        attrs={"label": f"chk.{orig.iid}"},
    )
    chk.origin = orig.iid
    chk.parent = blk
    return chk


def _validate_plan(module: Module, plan: dict[int, PlanAction]) -> None:
    unknown = [i for i in plan if i >= module.instruction_count()]
    if unknown:
        raise ConfigError(f"selected iids out of range: {sorted(unknown)}")
    for iid, act in plan.items():
        if act.kind not in PLAN_KINDS:
            raise ConfigError(f"unknown detector kind {act.kind!r}")
        if act.kind == "dup" and act.placement not in ("sync", "immediate"):
            raise ConfigError(f"unknown check placement {act.placement!r}")
        instr = module.instruction(iid)
        if not instr.produces_value:
            raise ConfigError(f"iid {iid} produces no value; cannot duplicate")
        if act.kind == "range":
            if act.lo is None or act.hi is None:
                raise ConfigError(f"range action for iid {iid} missing bounds")
            if not (instr.type.is_int or instr.type.is_float):
                raise ConfigError(
                    f"iid {iid}: checkrange needs an int/float value"
                )


def _build_checksum_fn(clone: Module, spec: ChecksumSpec) -> None:
    """Synthesize ``@__checksum() -> f64`` summing the target globals."""
    if CHECKSUM_FN in clone.functions:
        raise ConfigError(f"module already defines @{CHECKSUM_FN}")
    for name in spec.globals_:
        g = clone.get_global(name)
        if g.elem_type is not F64:
            raise ConfigError(
                f"checksum target @{name} is {g.elem_type}, need f64"
            )
    b = Builder.new_function(clone, CHECKSUM_FN, [], F64)
    acc = b.local(F64, b.f64(0.0), hint="acc")
    for name in spec.globals_:
        g = clone.get_global(name)
        with b.for_loop(b.i64(0), b.i64(g.size), hint=f"cs.{name}") as i:
            p = b.gep(g, i)
            v = b.load(p, F64)
            cur = b.load(acc, F64)
            b.store(b.fadd(cur, v), acc)
    b.ret(b.load(acc, F64, hint="sum"))


def _insert_checksum_calls(clone: Module, spec: ChecksumSpec) -> None:
    """Before every ``ret`` of ``@main``: call the checksum and check it."""
    main = clone.get_function("main")
    for blk in main.blocks.values():
        term = blk.instructions[-1] if blk.instructions else None
        if term is None or term.opcode != "ret":
            continue
        call = Instruction(
            "call",
            F64,
            [],
            name=main.fresh_name("cs"),
            attrs={"callee": CHECKSUM_FN},
        )
        call.parent = blk
        if spec.probe:
            use = Instruction("emit", VOID, [call])
        else:
            lo = Constant(F64, spec.golden - spec.band)
            hi = Constant(F64, spec.golden + spec.band)
            use = Instruction(
                "checkrange", VOID, [call, lo, hi], attrs={"label": "chk.sum"}
            )
        use.parent = blk
        blk.instructions[-1:-1] = [call, use]


def apply_plan(
    module: Module,
    plan: dict[int, PlanAction],
    checksum: ChecksumSpec | None = None,
) -> ProtectedModule:
    """Clone ``module`` and protect it according to ``plan``.

    ``plan`` maps original iids to :class:`PlanAction` s (one detector per
    instruction); ``checksum`` optionally adds the module-level checksum.
    The clone is re-finalized, so iids are recomputed; the returned
    :class:`ProtectedModule` carries the old→new maps.
    """
    if not module.finalized:
        module.finalize()
    _validate_plan(module, plan)

    clone = module.clone()
    # The deepcopy preserves iid fields, so instructions are addressable by
    # their original iids until we re-finalize at the end.
    old_iids: dict[int, Instruction] = {}
    for fn in clone.functions.values():
        for instr in fn.instructions():
            old_iids[instr.iid] = instr

    checks = 0
    range_checks = 0
    dropped = 0
    detectors: dict[int, str] = {}
    for fn in clone.functions.values():
        for blk in fn.blocks.values():
            new_seq: list[Instruction] = []
            pending: list[tuple[Instruction, Instruction]] = []
            pending_store: list[tuple[Instruction, Instruction]] = []

            def flush(pairs: list) -> None:
                nonlocal checks
                for orig, dup in pairs:
                    new_seq.append(_make_check(orig, dup, blk))
                    checks += 1
                pairs.clear()

            for instr in blk.instructions:
                if instr.is_sync_point and pending:
                    flush(pending)
                if instr.opcode == "store" and pending_store:
                    flush(pending_store)
                new_seq.append(instr)
                act = plan.get(instr.iid)
                if act is None:
                    continue
                detectors[instr.iid] = act.kind
                if act.kind in ("dup", "store"):
                    dup = instr.clone()
                    dup.name = fn.fresh_name(f"dup.{instr.iid}")
                    dup.origin = instr.iid
                    dup.parent = blk
                    new_seq.append(dup)
                    if act.kind == "store":
                        pending_store.append((instr, dup))
                    elif act.placement == "immediate":
                        new_seq.append(_make_check(instr, dup, blk))
                        checks += 1
                    else:
                        pending.append((instr, dup))
                else:  # range
                    chk = Instruction(
                        "checkrange",
                        VOID,
                        [
                            instr,
                            Constant(instr.type, act.lo),
                            Constant(instr.type, act.hi),
                        ],
                        attrs={"label": f"rng.{instr.iid}"},
                    )
                    chk.origin = instr.iid
                    chk.parent = blk
                    new_seq.append(chk)
                    range_checks += 1
            # A block always ends in a terminator (a sync point), so pending
            # dup pairs are flushed before it by the loop above; be defensive
            # for malformed blocks anyway.
            if pending:  # pragma: no cover - terminator flush handles this
                flush(pending)
            # Store-only pairs with no following store are never verified —
            # that is the detector's coverage loss, priced by its estimator.
            dropped += len(pending_store)
            pending_store.clear()
            blk.instructions = new_seq

    if checksum is not None:
        _build_checksum_fn(clone, checksum)
        _insert_checksum_calls(clone, checksum)

    clone.finalized = False
    clone.finalize()

    iid_map: dict[int, int] = {}
    dup_map: dict[int, int] = {}
    for fn in clone.functions.values():
        for instr in fn.instructions():
            if instr.origin is not None and instr.opcode not in (
                "check",
                "checkrange",
            ):
                dup_map[instr.origin] = instr.iid
    for old, obj in old_iids.items():
        iid_map[old] = obj.iid
    return ProtectedModule(
        module=clone,
        iid_map=iid_map,
        dup_map=dup_map,
        checks=checks,
        protected_iids=sorted(plan),
        detectors=detectors,
        range_checks=range_checks,
        dropped_pairs=dropped,
        has_checksum=checksum is not None,
    )


def duplicate_instructions(
    module: Module,
    selected_iids: list[int],
    check_placement: str = "sync",
) -> ProtectedModule:
    """Clone ``module`` and duplicate ``selected_iids`` (classic SID).

    ``check_placement`` is ``"sync"`` (flush checks right before the next
    synchronization point, the paper's placement), ``"immediate"`` (check
    directly after the duplicate — the ablation variant) or ``"store"``
    (verify only at the next memory store in the block).
    """
    if check_placement not in ("sync", "immediate", "store"):
        raise ConfigError(f"unknown check placement {check_placement!r}")
    if check_placement == "store":
        plan = {int(i): PlanAction("store") for i in selected_iids}
    else:
        plan = {
            int(i): PlanAction("dup", placement=check_placement)
            for i in selected_iids
        }
    return apply_plan(module, plan)
