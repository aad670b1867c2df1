"""Selective Instruction Duplication (SID) — the baseline technique.

Implements the classic single-reference-input SID pipeline the paper builds
on (§II-C): per-instruction cost/benefit profiling on the reference input,
0-1 knapsack instruction selection under a protection-level budget, and the
compile-time duplication+check transformation.
"""

from repro.sid.profiles import CostBenefitProfile, build_cost_benefit_profile
from repro.sid.knapsack import knapsack_select, greedy_knapsack, dp_knapsack
from repro.sid.selection import SelectionResult, select_instructions
from repro.detectors.transform import ProtectedModule, duplicate_instructions
from repro.sid.coverage import expected_coverage, measured_coverage
from repro.sid.pipeline import SIDConfig, SIDResult, classic_sid

__all__ = [
    "CostBenefitProfile",
    "build_cost_benefit_profile",
    "knapsack_select",
    "greedy_knapsack",
    "dp_knapsack",
    "SelectionResult",
    "select_instructions",
    "ProtectedModule",
    "duplicate_instructions",
    "expected_coverage",
    "measured_coverage",
    "SIDConfig",
    "SIDResult",
    "classic_sid",
]
