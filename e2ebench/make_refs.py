"""Rebuild the stored reference outputs in ``e2ebench/refs/``.

Run from the repository root::

    python3 e2ebench/make_refs.py            # every reference
    python3 e2ebench/make_refs.py hpccg-inject

Each reference is the stdout of the scalar serial engine (``--engine
scalar --workers 0 --no-cache``) for one program seed that a workload of
``run.WORKLOADS`` uses. Every benchmark job must print exactly this; rebuild
only when a change is meant to alter what the CLI prints. The kmeans
MINPSID references take about 30 s each on a quiet 2-core VM.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from run import REFERENCE_ARGV, REFS, ROOT, SRC, WORKLOADS


def main(argv: list[str]) -> int:
    groups = argv or sorted(REFERENCE_ARGV)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "E2EBENCH_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    REFS.mkdir(exist_ok=True)
    for group in groups:
        seeds = sorted({s for wl in WORKLOADS.values() if wl.ref == group
                        for s in wl.seeds})
        for seed in seeds:
            cmd = [sys.executable, "-m", "repro", *REFERENCE_ARGV[group],
                   "--seed", str(seed)]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                                 stdout=subprocess.PIPE).stdout
            path = REFS / f"{group}-seed{seed}.txt"
            path.write_bytes(out)
            print(f"{path.name}: {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
