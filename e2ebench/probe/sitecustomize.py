"""Layer probes for the end-to-end benchmark, installed at interpreter start.

The benchmark runner (``e2ebench/run.py``) puts this directory first on
``PYTHONPATH``, so every interpreter of a job imports this module during
start-up: the ``repro`` CLI process, its forked ``--workers`` pool children
(which inherit it) and ``socketpair`` fabric adapters (fresh interpreters
that inherit the environment). Nothing in ``src/`` is edited: a meta-path
finder wraps the layer functions listed in ``targets`` right after their
module executes, before any importer binds the names.

``E2EBENCH_MODE`` selects what the wrappers do:

``setup``
    At the first call into a campaign entry point, record the time and
    exit the process: a launch that measures only set-up.
``count``
    Count calls and deterministic work (trials, snapshots, batch rows,
    cache hits, fabric messages) of the functions marked as gate counters.
    No timing. Used by the untraced jobs that give the end-to-end metrics.
``trace``
    Everything ``count`` does, plus a span with a parent id around every
    call into every function of ``targets``.

Each process writes one JSON record to ``E2EBENCH_OUT/<pid>.json``: at
exit for the job process, at multiprocessing finalization for pool
workers, and after each message it encodes for adapters (which the
harness kills right after its BYE, so an exit hook would race).
``<pid>.start`` marks every probed process so ``run.py`` can wait for it.
"""

import os

_OUT = os.environ.get("E2EBENCH_OUT")
_MODE = os.environ.get("E2EBENCH_MODE", "count")


def _install() -> None:
    import atexit
    import functools
    import importlib.abc
    import itertools
    import json
    import resource
    import sys
    import threading
    from time import perf_counter

    tracing = _MODE == "trace"
    setup_only = _MODE == "setup"
    is_adapter = "repro.fabric.adapter" in getattr(sys, "orig_argv", ())

    class _State:
        """Per-process probe record (reset in forked children)."""

        def __init__(self, role, parent_span):
            self.pid = os.getpid()
            self.role = role
            self.parent_span = parent_span
            self.counts = {}
            self.spans = []
            self.ids = itertools.count()
            self.first_campaign = None
            self.campaign_depth = 0
            # A fresh lock per process: a forked child must not inherit
            # one held by another thread of its parent.
            self.lock = threading.Lock()
            open(os.path.join(_OUT, f"{self.pid}.start"), "w").close()

    state = _State(
        "adapter" if is_adapter else "main",
        os.environ.get("E2EBENCH_PARENT_SPAN"),
    )
    local = threading.local()

    def stack():
        s = getattr(local, "stack", None)
        if s is None:
            s = local.stack = []
        return s

    def bump(key, n=1):
        # Fabric dispatcher threads count concurrently with the main thread.
        with state.lock:
            state.counts[key] = state.counts.get(key, 0) + n

    originals = {}

    def unwrapped_aliases():
        """Names still bound to an original, unprobed layer function."""
        found = set()
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is not None:
                    found.add(f"{modname}.{attr} -> {name}")
        return sorted(found)

    def flush():
        rec = {
            "pid": state.pid,
            "role": state.role,
            "parent_span": state.parent_span,
            "first_campaign": state.first_campaign,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "counts": state.counts,
            "spans": state.spans,
        }
        if tracing and state.role == "main":
            rec["unwrapped"] = unwrapped_aliases()
        path = os.path.join(_OUT, f"{state.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(rec, fh, separators=(",", ":"))
        os.replace(tmp, path)

    # -- count extractors: (args, kwargs, result) -> None, bump counts ----
    def x_campaign(args, kw, res):
        if state.campaign_depth == 0:
            trials = getattr(res, "trials", None)
            if trials is None:  # PerInstructionResult
                trials = sum(c.total for c in res.per_iid.values())
            bump("fi.campaign.trials", trials)

    def x_profile(args, kw, res):
        bump("vm.profiler.profile_run.steps", res.steps)

    def x_snapshots(args, kw, res):
        bump("vm.checkpoint.snapshots", len(res.snapshots))

    def x_batch(args, kw, res):
        st = res[1]
        for field in ("trials", "detached", "reconverged", "lockstep_steps",
                      "scalar_steps"):
            bump(f"vm.batch.{field}", getattr(st, field))

    def x_encode(args, kw, res):
        bump("fabric.protocol.encode_message.bytes", len(res))
        if is_adapter:
            # Each message an adapter encodes answers one it received, so
            # the record is complete up to here; the BYE that precedes the
            # harness's kill gets no answer and is never counted.
            flush()

    def x_decode(args, kw, res):
        frame = args[0] if args else kw["frame"]
        bump("fabric.protocol.decode_message.bytes", len(frame.payload))

    def x_cache_get(args, kw, res):
        if res is not None:
            bump("cache.store.get.hits")

    def x_cache_put(args, kw, res):
        cache, key = args[0], (args[1] if len(args) > 1 else kw["key"])
        try:
            size = os.path.getsize(cache.path_for(key))
        except OSError:
            size = 0
        bump("cache.store.put.bytes", size)

    def x_supervisor(args, kw, res):
        sup = args[0]
        bump("util.supervisor.supervised_map.chunks", len(sup.chunks))
        bump("util.supervisor.supervised_map.retries",
             sum(c.attempts for c in sup.chunks))

    # (module, attribute path, metric name or None for no span, extractor,
    #  gate): gate entries are wrapped in every mode, the rest only when
    #  tracing. A ``None`` name records counts without a span.
    targets = [
        ("repro.apps.registry", "get_app", "apps.get_app", None, False),
        ("repro.apps.base", "App.program", "apps.program", None, False),
        ("repro.ir.parser", "parse_module", "ir.parser.parse_module",
         None, False),
        ("repro.vm.interpreter", "Program.run", "vm.interpreter.run",
         None, False),
        ("repro.vm.profiler", "profile_run", "vm.profiler.profile_run",
         x_profile, True),
        ("repro.vm.checkpoint", "record_checkpoints",
         "vm.checkpoint.record_checkpoints", x_snapshots, True),
        ("repro.vm.batch", "run_trials_lockstep",
         "vm.batch.run_trials_lockstep", x_batch, True),
        ("repro.fi.injector", "inject_one_resumed",
         "fi.injector.inject_one_resumed", None, False),
        ("repro.fi.outcome", "classify_run", "fi.outcome.classify_run",
         None, False),
        ("repro.fi.campaign", "run_per_instruction_campaign",
         "fi.campaign.run_per_instruction_campaign", x_campaign, True),
        ("repro.fi.campaign", "run_campaign", "fi.campaign.run_campaign",
         x_campaign, True),
        ("repro.util.supervisor", "supervised_map",
         "util.supervisor.supervised_map", None, False),
        ("repro.util.supervisor", "_Supervisor.run", None,
         x_supervisor, False),
        ("repro.fabric.transport", "spawn_socketpair_adapter",
         "fabric.transport.spawn_socketpair_adapter", None, False),
        ("repro.fabric.protocol", "handshake_connect",
         "fabric.protocol.handshake_connect", None, False),
        ("repro.fabric.protocol", "encode_message",
         "fabric.protocol.encode_message", x_encode, True),
        ("repro.fabric.protocol", "decode_message",
         "fabric.protocol.decode_message", x_decode, True),
        ("repro.cache.store", "CampaignCache.get", "cache.store.get",
         x_cache_get, True),
        ("repro.cache.store", "CampaignCache.put", "cache.store.put",
         x_cache_put, True),
        ("repro.minpsid.ga", "GeneticInputSearch.search",
         "minpsid.ga.search", None, False),
        ("repro.minpsid.wcfg", "fitness_score", "minpsid.wcfg.fitness_score",
         None, False),
        ("repro.minpsid.incubative", "find_incubative",
         "minpsid.incubative.find_incubative", None, False),
        ("repro.minpsid.search", "run_input_search",
         "minpsid.search.run_input_search", None, False),
        ("repro.sid.selection", "select_instructions",
         "sid.selection.select_instructions", None, False),
        ("repro.detectors.transform", "duplicate_instructions",
         "detectors.transform.duplicate_instructions", None, False),
    ]
    if setup_only:
        targets = [t for t in targets if t[3] is x_campaign]
    elif not tracing:
        targets = [t for t in targets if t[4]]
    by_module = {}
    for t in targets:
        by_module.setdefault(t[0], []).append(t)

    def wrap(fn, name, extract):
        is_campaign = extract is x_campaign
        spawns = name == "fabric.transport.spawn_socketpair_adapter"
        calls_key = f"{name}.calls" if name else None

        @functools.wraps(fn)
        def probe(*args, **kw):
            if is_campaign:
                if state.first_campaign is None:
                    state.first_campaign = perf_counter()
                    if setup_only:
                        flush()
                        os._exit(0)
                state.campaign_depth += 1
            if calls_key is not None:
                bump(calls_key)
            try:
                if tracing and name is not None:
                    st = stack()
                    sid = next(state.ids)
                    parent = st[-1] if st else None
                    if spawns:
                        # The adapter copies this environment: it learns
                        # which span started it.
                        os.environ["E2EBENCH_PARENT_SPAN"] = f"{state.pid}:{sid}"
                    st.append(sid)
                    t0 = perf_counter()
                    try:
                        res = fn(*args, **kw)
                    finally:
                        t1 = perf_counter()
                        st.pop()
                        state.spans.append((sid, parent, name, t0, t1))
                else:
                    res = fn(*args, **kw)
            finally:
                if is_campaign:
                    state.campaign_depth -= 1
            if extract is not None:
                extract(args, kw, res)
            return res

        return probe

    def patch(module):
        for _mod, path, name, extract, _gate in by_module[module.__name__]:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            fn = orig.fget if isinstance(orig, property) else orig
            originals[id(fn)] = name or path
            new = wrap(fn, name, extract)
            setattr(owner, attr, property(new) if fn is not orig else new)

    class Finder(importlib.abc.MetaPathFinder):
        def find_spec(self, fullname, path, target=None):
            if fullname not in by_module:
                return None
            for finder in sys.meta_path:
                if finder is self or not hasattr(finder, "find_spec"):
                    continue
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    break
            else:
                return None
            loader = spec.loader
            exec_module = loader.exec_module

            def exec_and_patch(module):
                exec_module(module)
                patch(module)

            loader.exec_module = exec_and_patch
            return spec

    sys.meta_path.insert(0, Finder())

    def after_fork_in_child():
        # A forked pool worker starts a fresh record under its own pid,
        # parented to the span its parent had open at fork time.
        st = stack()
        parent = f"{state.pid}:{st[-1]}" if st else state.parent_span
        state.__init__("worker", parent)
        local.stack = []
        import multiprocessing.util as mpu

        # multiprocessing clears its finalizer registry while bootstrapping
        # the child, so arm the exit flush from its after-fork hook.
        mpu.register_after_fork(
            state, lambda _s: mpu.Finalize(None, flush, exitpriority=100)
        )

    os.register_at_fork(after_in_child=after_fork_in_child)
    if not is_adapter:
        atexit.register(flush)


if _OUT:
    _install()
