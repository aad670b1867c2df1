"""End-to-end benchmark of the ``repro`` CLI with per-layer attribution.

Run from the repository root::

    python3 e2ebench/run.py --workload minpsid-kmeans-warm --seed 1 \\
        --seconds 30 --trace 0

One client launches real ``python -m repro ...`` jobs one at a time (a
closed loop), checks every job's stdout against the stored scalar serial
reference in ``e2ebench/refs/``, and prints one JSON result as the last
line of stdout. ``--trace 0`` reports the end-to-end metrics, with times
scaled to a reference host by the speed sampled while each job ran;
``--trace 1`` runs untraced and traced jobs side by side and reports the
per-layer metrics, after checking that both saw the same deterministic
work.
Layer probes live in ``e2ebench/probe/sitecustomize.py``; see
``e2ebench/README.md`` for the design and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBE = BENCH / "probe"
REFS = BENCH / "refs"
STATE = ROOT / ".e2ebench"

#: Set-up-only launches per untraced run, on top of every job's own set-up.
SETUP_LAUNCHES = 16
#: CPU seconds one calibration pass takes on the reference host: the fast
#: state of the 2-core Xeon VM (Python 3.11) the bounds were measured on.
CALIB_REF_S = 0.004
#: Host-speed samples: one calibration pass this often, and the margin
#: around a launch within which its samples count.
SAMPLE_EVERY_S = 0.2
SAMPLE_PAD_S = 0.5
#: Untimed warm-up launches before each run's measurements.
WARMUP_S = 3.0
JOB_TIMEOUT_S = 150

KMEANS_MINPSID = ("protect", "kmeans", "--method", "minpsid")
HPCCG_INJECT = ("inject", "hpccg", "--faults", "2000")


@dataclass(frozen=True)
class Workload:
    argv: tuple
    #: Program seeds every run cycles through, in an order the workload
    #: ``--seed`` sets. Work per program seed differs by up to 2.5x, so a
    #: run's metrics average per-seed medians over this fixed mix: the seeds
    #: of 1-10 nearest the first and third quartiles of this workload's
    #: per-seed cost (README.md, "Program seeds").
    seeds: tuple
    #: ``"fresh"``: a new empty cache dir per job; ``"warm"``: a cache dir
    #: filled before timing; ``None``: the command passes ``--no-cache``.
    cache: str | None
    #: Reference group: jobs whose stdout must equal refs/<ref>-seed<N>.txt.
    ref: str


WORKLOADS = {
    "minpsid-kmeans-batch-cold": Workload(
        KMEANS_MINPSID + ("--engine", "batch"), (10, 9), "fresh",
        "kmeans-minpsid",
    ),
    "minpsid-kmeans-warm": Workload(
        KMEANS_MINPSID + ("--engine", "batch"), (2, 4), "warm",
        "kmeans-minpsid",
    ),
    "inject-hpccg-fabric": Workload(
        HPCCG_INJECT + (
            "--engine", "scalar", "--checkpoint-interval", "auto",
            "--workers", "2", "--transport", "socketpair", "--no-cache",
        ),
        (6, 5), None, "hpccg-inject",
    ),
}

#: The scalar serial engine: the oracle every workload's output must match.
REFERENCE_ARGV = {
    "kmeans-minpsid": KMEANS_MINPSID + (
        "--engine", "scalar", "--workers", "0", "--no-cache",
    ),
    "hpccg-inject": HPCCG_INJECT + (
        "--engine", "scalar", "--workers", "0", "--no-cache",
    ),
}

#: Counts that depend only on code and inputs; a job whose counts differ
#: from another job of the same code and program seed fails.
GATE_COUNTS = (
    "fi.campaign.trials",
    "fi.campaign.run_campaign.calls",
    "fi.campaign.run_per_instruction_campaign.calls",
    "vm.profiler.profile_run.calls",
    "vm.profiler.profile_run.steps",
    "vm.checkpoint.record_checkpoints.calls",
    "vm.checkpoint.snapshots",
    "vm.batch.run_trials_lockstep.calls",
    "vm.batch.trials",
    "vm.batch.detached",
    "vm.batch.reconverged",
    "vm.batch.lockstep_steps",
    "vm.batch.scalar_steps",
    "cache.store.get.calls",
    "cache.store.get.hits",
    "cache.store.put.calls",
    "fabric.protocol.encode_message.calls",
    "fabric.protocol.encode_message.bytes",
    "fabric.protocol.decode_message.calls",
    "fabric.protocol.decode_message.bytes",
)


def _declared(kind: str) -> dict:
    """Metric names and units as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


END_TO_END = _declared("end_to_end")
PER_LAYER = _declared("per_layer")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def calibration_pass(n: int = 4_000) -> None:
    """A fixed interpreter-style loop: a register machine in Python."""
    code = [(i % 5, i % 7, (i * 3) % 7) for i in range(12)]
    regs = [1.0] * 8
    mem: dict = {}
    for it in range(n):
        for op, a, b in code:
            if op == 0:
                regs[a] = regs[a] + regs[b]
            elif op == 1:
                regs[a] = regs[a] * 0.5 + 1.0
            elif op == 2:
                mem[it & 63] = regs[b]
            elif op == 3:
                regs[a] = mem.get(it & 63, 0.0) - regs[b]
            else:
                regs[a] = abs(regs[b]) % 97.0


def running_cpus(job_dir: Path) -> list[int]:
    """CPUs that the probed processes of a job are running on now."""
    cpus = []
    try:
        marks = list(job_dir.glob("*.start"))
    except OSError:  # the launch ended and its dir is being removed
        return cpus
    for mark in marks:
        try:
            stat = Path(f"/proc/{mark.stem}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] == "R":
            cpus.append(int(fields[36]))  # field 39, "processor"
    return cpus


class HostSpeed:
    """Samples how fast the job's CPUs run, on a thread, for a whole run.

    A shared VM changes speed by up to ~1.8x for seconds to minutes at a
    time as other tenants come and go, and each of its CPUs on its own,
    which no statistic over one run's jobs removes (README.md, "Host
    speed"). Every ``SAMPLE_EVERY_S`` the thread moves to a CPU that a
    process of the job in ``follow`` is running on, taking turns when there
    are several, and times one calibration pass there in its own CPU
    seconds: waiting for the CPU that the job holds does not count, only
    how fast the CPU runs. The pass is the benchmark's own code, so it
    reads the same on every program version.
    """

    def __init__(self) -> None:
        self.samples: list = []  # (perf_counter time, speed vs reference)
        #: Probe output dir of the launch running now.
        self.follow: Path | None = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        every = os.sched_getaffinity(0)
        turn = 0
        while not self._stop.wait(SAMPLE_EVERY_S):
            cpus = running_cpus(self.follow) if self.follow else []
            turn += 1
            # Affinity of this thread only; the runner's other threads and
            # the jobs it starts keep every CPU.
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]} if cpus else every)
            t = time.perf_counter()
            c = time.thread_time()
            calibration_pass()
            speed = CALIB_REF_S / (time.thread_time() - c)
            with self._lock:
                self.samples.append((t, speed))

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over ``[t0, t1]`` padded, relative to the reference.

        Seconds on this host times this speed are seconds on the reference
        host: a job does its work at the speed of the moment. The run's
        warm-up is longer than the pad, so no window is empty.
        """
        with self._lock:
            return statistics.fmean(
                v for t, v in self.samples
                if t0 - SAMPLE_PAD_S <= t <= t1 + SAMPLE_PAD_S)


# ---------------------------------------------------------------------------
# One job: launch, wait for its whole process tree, read the probe records
# ---------------------------------------------------------------------------


@dataclass
class Job:
    ok: bool
    why: str = ""
    wall: float = 0.0
    setup: float | None = None
    #: ``time.perf_counter()`` at launch.
    start: float = 0.0
    trials: int = 0
    rss_mb: float = 0.0
    counts: dict = field(default_factory=dict)
    records: list = field(default_factory=list)


def job_env(mode: str, outdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "E2EBENCH_", "PYTHON"))}
    env["PYTHONPATH"] = os.pathsep.join([str(PROBE), str(SRC)])
    env["E2EBENCH_OUT"] = str(outdir)
    env["E2EBENCH_MODE"] = mode
    return env


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def launch(argv: list, mode: str, outdir: Path, stdout_ref: str | None) -> Job:
    """Run one ``repro`` job and check its exit code and stdout."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    env = job_env(mode, outdir)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return Job(False, "timeout")
    wall = time.perf_counter() - t0
    # Every probed process marks itself; wait until each has ended, and
    # kill the job's process group if anything outlives the grace period.
    pids = [int(p.stem) for p in outdir.glob("*.start")]
    deadline = time.monotonic() + 10
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    stragglers = [p for p in pids if _alive(p)]
    if stragglers:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return Job(False, f"processes {stragglers} outlived the job")
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return Job(False, f"exit code {proc.returncode}: {' | '.join(tail)}")
    if stdout_ref is not None and out.decode() != stdout_ref:
        return Job(False, "stdout differs from the scalar serial reference")
    records = []
    for p in outdir.glob("*.json"):
        records.append(json.loads(p.read_text()))
    main = [r for r in records if r["role"] == "main"]
    if len(main) != 1 or main[0]["first_campaign"] is None:
        return Job(False, "no probe record of a campaign call")
    counts: dict = {}
    for r in records:
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v
    unwrapped = main[0].get("unwrapped")
    if unwrapped:
        return Job(False, f"probes missed aliases: {unwrapped}")
    return Job(
        True, wall=wall, setup=main[0]["first_campaign"] - t0, start=t0,
        trials=counts.get("fi.campaign.trials", 0),
        rss_mb=sum(r["maxrss_kb"] for r in records) / 1024.0,
        counts=counts, records=records,
    )


# ---------------------------------------------------------------------------
# Per-layer attribution from span records
# ---------------------------------------------------------------------------


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_times(records) -> tuple[dict, dict, float]:
    """Inclusive and self seconds per layer, summed over processes.

    Inclusive time counts a span only when no ancestor has the same name,
    so recursion is not counted twice; self time subtracts the direct
    child spans of the same process. Also returns the main process's time
    under any span.
    """
    incl: dict = {}
    self_s: dict = {}
    covered = 0.0
    for r in records:
        spans = {s[0]: s for s in r["spans"]}
        child_time: dict = {}
        for sid, parent, name, t0, t1 in spans.values():
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        for sid, parent, name, t0, t1 in spans.values():
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time.get(sid, 0.0)
            p = parent
            while p is not None and spans[p][2] != name:
                p = spans[p][1]
            if p is None:
                incl[name] = incl.get(name, 0.0) + (t1 - t0)
        if r["role"] == "main":
            covered = _union(
                (s[3], s[4]) for s in spans.values() if s[1] is None
            )
    return incl, self_s, covered


def layer_metrics(job: Job) -> dict:
    incl, self_s, covered = layer_times(job.records)
    c = job.counts
    m = {}
    for name in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if suffix == "s":
            m[name] = incl.get(base, 0.0)
        elif suffix == "self_s":
            m[name] = self_s.get(base, 0.0)
        else:  # a count; derived values are overwritten below
            m[name] = c.get(name, 0)

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    lock = "vm.batch.run_trials_lockstep"
    trials, detached = c.get("vm.batch.trials", 0), c.get("vm.batch.detached", 0)
    lockstep, scalar = (c.get("vm.batch.lockstep_steps", 0),
                        c.get("vm.batch.scalar_steps", 0))
    m.update({
        "vm.profiler.profile_run.steps_per_s": rate(
            c.get("vm.profiler.profile_run.steps", 0),
            m["vm.profiler.profile_run.s"]),
        "fi.injector.inject_one_resumed.trials_per_s": rate(
            m["fi.injector.inject_one_resumed.calls"],
            m["fi.injector.inject_one_resumed.s"]),
        f"{lock}.trials_per_s": rate(trials, m[f"{lock}.s"]),
        f"{lock}.detach_rate": detached / trials if trials else 0.0,
        f"{lock}.occupancy": (
            lockstep / (lockstep + scalar) if lockstep + scalar else 0.0),
        f"{lock}.reconverged": c.get("vm.batch.reconverged", 0),
        "cache.hit_ratio": (
            m["cache.store.get.hits"] / m["cache.store.get.calls"]
            if m["cache.store.get.calls"] else 0.0),
        "traced_wall_s": job.wall,
        "unattributed_s": job.wall - covered,
    })
    return m


# ---------------------------------------------------------------------------
# A run: warm-up, optional cache fill, then jobs for --seconds
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """Identity of the code under test, for the stored-count gate."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + [PROBE / "sitecustomize.py"]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def gate_view(counts: dict) -> dict:
    return {k: counts.get(k, 0) for k in GATE_COUNTS}


class Run:
    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.wl = WORKLOADS[name]
        self.seconds = seconds
        rng = random.Random(seed)
        self.order = rng.sample(self.wl.seeds, len(self.wl.seeds))
        self.tag = f"{name}-{seed}"
        self.refs = {
            s: (REFS / f"{self.wl.ref}-seed{s}.txt").read_text()
            for s in self.wl.seeds
        }
        self.attempted = 0
        self.failed = 0
        self.n = 0
        self.first_counts: dict = {}
        self.host = HostSpeed()

    def argv(self, pseed: int, cache_dir: Path | None) -> list:
        argv = [sys.executable, "-m", "repro", *self.wl.argv,
                "--seed", str(pseed)]
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        return argv

    def cache_dir(self, pseed: int) -> Path | None:
        if self.wl.cache == "warm":
            return STATE / "warm-run" / f"{self.tag}-seed{pseed}"
        if self.wl.cache == "fresh":
            return STATE / "cold" / self.tag
        return None

    def job(self, pseed: int, mode: str) -> Job:
        self.n += 1
        cache = self.cache_dir(pseed)
        if self.wl.cache == "fresh":
            shutil.rmtree(cache, ignore_errors=True)
        out = STATE / "jobs" / self.tag
        self.host.follow = out
        job = launch(self.argv(pseed, cache), mode, out, self.refs[pseed])
        shutil.rmtree(out, ignore_errors=True)
        if self.wl.cache == "fresh":
            shutil.rmtree(cache, ignore_errors=True)
        if job.ok and self.wl.cache == "warm":
            gets = job.counts.get("cache.store.get.calls", 0)
            hits = job.counts.get("cache.store.get.hits", 0)
            if gets == 0 or hits != gets:
                job.ok, job.why = False, f"warm cache hit {hits}/{gets}"
        if job.ok:
            # Every job of one program seed does identical work.
            view = gate_view(job.counts)
            first = self.first_counts.setdefault(pseed, view)
            if view != first:
                job.ok, job.why = False, f"counts differ: {diff(first, view)}"
        self.attempted += 1
        if not job.ok:
            self.failed += 1
        log(f"  job {self.n} seed={pseed} mode={mode} "
            + (f"wall={job.wall:.3f}s setup={job.setup:.3f}s"
               if job.ok else f"FAILED: {job.why}"))
        return job

    def setup_launch(self, pseed: int, counted: bool = True) -> Job:
        """A launch that exits at the first campaign call: set-up only."""
        out = STATE / "jobs" / f"{self.tag}-setup"
        self.host.follow = out
        job = launch(self.argv(pseed, self.cache_dir(pseed)), "setup", out,
                     None)
        shutil.rmtree(out, ignore_errors=True)
        if not job.ok:
            log(f"  set-up launch seed={pseed} FAILED: {job.why}")
        if counted:
            self.attempted += 1
            self.failed += not job.ok
        return job

    def prepare(self) -> None:
        if self.wl.cache == "warm":
            # Fill once per checkout and code version; every run then times
            # its jobs against its own copy of the filled cache.
            digest = source_digest()
            for s in self.order:
                filled = STATE / "warm-fill" / f"{digest}-seed{s}"
                if not filled.exists():
                    tmp = filled.with_name(filled.name + ".tmp")
                    shutil.rmtree(tmp, ignore_errors=True)
                    log(f"  filling {filled.name}")
                    job = launch(self.argv(s, tmp), "count",
                                 STATE / "jobs" / self.tag, self.refs[s])
                    self.attempted += 1
                    if not job.ok:
                        self.failed += 1
                        log(f"  fill FAILED: {job.why}")
                        continue
                    tmp.rename(filled)
                run_copy = self.cache_dir(s)
                shutil.rmtree(run_copy, ignore_errors=True)
                shutil.copytree(filled, run_copy)
        # Untimed launches first, so bytecode caches and the page cache are
        # warm and the CPU has left its idle clock before anything is
        # measured: after a few idle seconds the first ~1.5 s of launches
        # run ~45% slower on a 2-core VM.
        end = time.perf_counter() + WARMUP_S
        while time.perf_counter() < end:
            if not self.setup_launch(self.order[0], counted=False).ok:
                break

    def jobs_for(self, seconds: float, modes: list[str], between=None) -> dict:
        """Cycle the program seeds (each with every mode) for ``seconds``.

        ``between(elapsed)`` runs after every job and counts toward the time.
        """
        per_seed: dict = {(s, m): [] for s in self.order for m in modes}
        start = time.perf_counter()
        cycles = 0
        while True:
            for s in self.order:
                for m in modes:
                    job = self.job(s, m)
                    if job.ok:
                        per_seed[s, m].append(job)
                    if between is not None:
                        between(time.perf_counter() - start)
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / cycles > seconds:
                return per_seed

    def end_to_end(self) -> dict:
        # Set-up-only launches are spread over the run, in step with the
        # jobs, so their median samples the same host conditions as the
        # jobs do rather than one burst at the start.
        setups: dict = {s: [] for s in self.order}
        launched = 0

        def set_up_launches(upto: int) -> None:
            nonlocal launched
            while launched < upto:
                s = self.order[launched % len(self.order)]
                launched += 1
                job = self.setup_launch(s)
                if job.ok:
                    setups[s].append(job)

        per_seed = self.jobs_for(
            self.seconds, ["count"],
            lambda elapsed: set_up_launches(
                min(SETUP_LAUNCHES, int(SETUP_LAUNCHES * elapsed / self.seconds))),
        )
        set_up_launches(SETUP_LAUNCHES)
        # Times in reference-host seconds: each launch's seconds times the
        # host's mean speed while it ran.
        speed = self.host.speed
        samples: dict = {name: {} for name in END_TO_END}
        for s in self.order:
            jobs = per_seed[s, "count"]
            walls = [j.wall * speed(j.start, j.start + j.wall) for j in jobs]
            samples["wall_s"][s] = walls
            samples["setup_s"][s] = [
                j.setup * speed(j.start, j.start + j.setup)
                for j in setups[s] + jobs
            ]
            samples["trials_per_s"][s] = [
                j.trials / w for j, w in zip(jobs, walls)]
            samples["peak_rss_mb"][s] = [j.rss_mb for j in jobs]
            if jobs:
                log(f"  seed {s}: median wall "
                    f"{statistics.median(j.wall for j in jobs):.3f}s on this "
                    f"host, {statistics.median(walls):.3f}s on the reference")
        return {name: mix_median(by_seed) for name, by_seed in samples.items()}

    def per_layer(self) -> dict:
        per_seed = self.jobs_for(self.seconds, ["count", "trace"])
        digest = source_digest()
        rows: dict = {name: {} for name in PER_LAYER}
        for s in self.order:
            plain, traced = per_seed[s, "count"], per_seed[s, "trace"]
            if not plain or not traced:
                continue
            stored = STATE / "counts" / f"{digest}-{self.name}-seed{s}.json"
            want = gate_view(plain[0].counts)
            if stored.exists():
                earlier = json.loads(stored.read_text())
                if earlier != want:
                    self.failed += len(plain) + len(traced)
                    log(f"  seed {s}: counts differ from an earlier traced "
                        f"run of the same code: {diff(earlier, want)}")
                    continue
            else:
                stored.parent.mkdir(parents=True, exist_ok=True)
                stored.write_text(json.dumps(want, sort_keys=True))
            overhead = (statistics.median(j.wall for j in traced)
                        / statistics.median(j.wall for j in plain) - 1.0)
            per_job = [layer_metrics(j) for j in traced]
            for name in PER_LAYER:
                if name == "trace_overhead_frac":
                    rows[name][s] = [overhead]
                else:
                    rows[name][s] = [m[name] for m in per_job]
        return {name: mix_median(by_seed) for name, by_seed in rows.items()}


def mix_median(by_seed: dict) -> float:
    """Mean over the program seeds of each seed's median sample."""
    meds = [statistics.median(v) for v in by_seed.values() if v]
    return sum(meds) / len(meds) if meds else 0.0


def diff(a: dict, b: dict) -> str:
    return ", ".join(f"{k}: {a.get(k)} != {b.get(k)}"
                     for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    needed = [SRC / "repro" / "__main__.py"] + [
        REFS / f"{wl.ref}-seed{s}.txt" for s in wl.seeds
    ]
    missing = [p for p in needed if not p.exists()]
    if missing:
        log("e2ebench: missing " + ", ".join(str(p) for p in missing)
            + " (run from the root of a repository checkout)")
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    log(f"e2ebench: {args.workload} seed={args.seed} order={run.order} "
        f"trace={args.trace}")
    try:
        if args.trace:
            run.prepare()
            values, units = run.per_layer(), PER_LAYER
        else:
            with run.host:
                run.prepare()
                values, units = run.end_to_end(), END_TO_END
    finally:
        shutil.rmtree(STATE / "warm-run", ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
