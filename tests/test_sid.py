"""Tests for the SID baseline: profiles, knapsack, selection, duplication."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, DetectedError
from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.sid.coverage import coverage_loss, expected_coverage, measured_coverage
from repro.detectors.transform import duplicate_instructions
from repro.sid.knapsack import dp_knapsack, greedy_knapsack, knapsack_select
from repro.sid.pipeline import SIDConfig, classic_sid
from repro.sid.profiles import build_cost_benefit_profile
from repro.sid.selection import select_instructions
from repro.vm.interpreter import FaultSpec, Program
from repro.vm.profiler import profile_run
from tests.conftest import build_sum_squares_module


@pytest.fixture(scope="module")
def sumsq_profile():
    m = build_sum_squares_module()
    p = Program(m)
    data = {"data": [float(i % 5) + 0.5 for i in range(32)]}
    dyn = profile_run(p, args=[16], bindings=data)
    fi = run_per_instruction_campaign(
        p, 6, seed=42, args=[16], bindings=data, profile=dyn
    )
    return m, p, data, build_cost_benefit_profile(m, dyn, fi)


class TestProfiles:
    def test_benefit_is_prob_times_cost(self, sumsq_profile):
        _, _, _, prof = sumsq_profile
        for iid in prof.iids:
            assert prof.benefit[iid] == pytest.approx(
                prof.sdc_prob[iid] * prof.cost[iid]
            )

    def test_costs_are_fractions(self, sumsq_profile):
        _, _, _, prof = sumsq_profile
        assert all(0.0 <= prof.cost[iid] <= 1.0 for iid in prof.iids)

    def test_with_benefits_copy_semantics(self, sumsq_profile):
        _, _, _, prof = sumsq_profile
        target = prof.iids[0]
        updated = prof.with_benefits({target: 123.0})
        assert updated.benefit[target] == 123.0
        assert prof.benefit[target] != 123.0

    def test_sdc_mass_nonnegative(self, sumsq_profile):
        _, _, _, prof = sumsq_profile
        assert prof.total_sdc_mass() >= 0.0


class TestKnapsack:
    def test_greedy_respects_budget(self):
        items = [(0, 5.0, 10.0), (1, 5.0, 9.0), (2, 5.0, 8.0)]
        chosen = greedy_knapsack(items, 10.0)
        assert chosen == [0, 1]

    def test_greedy_takes_free_items(self):
        items = [(0, 0.0, 1.0), (1, 100.0, 5.0)]
        assert greedy_knapsack(items, 1.0) == [0]

    def test_greedy_skips_worthless(self):
        items = [(0, 1.0, 0.0), (1, 1.0, 1.0)]
        assert greedy_knapsack(items, 10.0) == [1]

    def test_dp_optimal_where_greedy_fails(self):
        # Greedy takes the densest item (0: 2.0/unit) which blocks the
        # heavier but more valuable item 1; the DP finds the optimum.
        items = [(0, 1, 2.0), (1, 3, 5.0)]
        assert dp_knapsack(items, 3) == [1]
        assert greedy_knapsack([(k, float(w), v) for k, w, v in items], 3.0) == [0]

    def test_dp_guard(self):
        with pytest.raises(ConfigError):
            dp_knapsack([(i, 10**6, 1.0) for i in range(100)], 10**6)

    def test_greedy_tiebreak_is_deterministic(self):
        """Equal-density items rank by iid, whatever the input order."""
        items = [(7, 2.0, 4.0), (3, 2.0, 4.0), (5, 2.0, 4.0), (1, 2.0, 4.0)]
        budget = 4.0  # room for exactly two of the four
        expected = greedy_knapsack(sorted(items), budget)
        assert expected == [1, 3]  # lowest iids win the slack
        for shuffled in (items, list(reversed(items)), items[2:] + items[:2]):
            assert greedy_knapsack(shuffled, budget) == expected

    def test_greedy_tiebreak_density_before_iid(self):
        # Denser item 9 is bought first despite its higher iid, leaving
        # slack for only one of the equal-density pair — the lower iid.
        items = [(9, 1.0, 3.0), (1, 2.0, 4.0), (2, 2.0, 4.0)]
        assert greedy_knapsack(items, 3.0) == [1, 9]

    def test_knapsack_select_methods_agree_when_easy(self):
        weights = {i: 1.0 for i in range(10)}
        values = {i: float(i) for i in range(10)}
        g = knapsack_select(weights, values, 3.0, method="greedy")
        d = knapsack_select(weights, values, 3, method="dp")
        assert set(g) == set(d) == {7, 8, 9}

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            knapsack_select({}, {}, 1.0, method="magic")

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_dp_never_exceeds_capacity_and_beats_greedy(self, raw, cap):
        items = [(k, w, v) for k, (w, v) in enumerate(raw)]
        chosen_dp = dp_knapsack(items, cap)
        weight = sum(items[k][1] for k in chosen_dp)
        assert weight <= cap
        value_dp = sum(items[k][2] for k in chosen_dp)
        chosen_g = greedy_knapsack([(k, float(w), v) for k, w, v in items], cap)
        value_g = sum(items[k][2] for k in chosen_g)
        assert value_dp >= value_g - 1e-9


class TestSelection:
    def test_budget_respected(self, sumsq_profile):
        _, _, _, prof = sumsq_profile
        sel = select_instructions(prof, 0.5)
        assert sel.used_budget <= 0.5 + 1e-9

    def test_expected_coverage_monotone_in_level(self, sumsq_profile):
        _, _, _, prof = sumsq_profile
        covs = [
            select_instructions(prof, lvl).expected_coverage
            for lvl in (0.1, 0.3, 0.5, 0.9)
        ]
        assert covs == sorted(covs)

    def test_full_budget_covers_everything(self, sumsq_profile):
        _, _, _, prof = sumsq_profile
        sel = select_instructions(prof, 1.0)
        assert sel.expected_coverage == pytest.approx(1.0)

    def test_bad_level(self, sumsq_profile):
        _, _, _, prof = sumsq_profile
        with pytest.raises(ConfigError):
            select_instructions(prof, 0.0)
        with pytest.raises(ConfigError):
            select_instructions(prof, 1.5)


class TestDuplication:
    def test_golden_behaviour_preserved(self, sumsq_profile):
        m, p, data, prof = sumsq_profile
        sel = select_instructions(prof, 0.5)
        prot = duplicate_instructions(m, sel.selected)
        golden = p.run(args=[16], bindings=data)
        protected_run = Program(prot.module).run(args=[16], bindings=data)
        assert protected_run.output == golden.output

    def test_dup_and_check_inserted(self, sumsq_profile):
        m, _, _, prof = sumsq_profile
        sel = select_instructions(prof, 0.5)
        prot = duplicate_instructions(m, sel.selected)
        assert prot.checks == len(sel.selected)
        dups = [
            i for i in prot.module.instructions()
            if i.origin is not None and i.opcode != "check"
        ]
        assert len(dups) == len(sel.selected)

    def test_checks_before_sync_points(self, sumsq_profile):
        """Every check precedes the next sync point after its duplicate."""
        m, _, _, prof = sumsq_profile
        sel = select_instructions(prof, 0.5)
        prot = duplicate_instructions(m, sel.selected)
        for fn in prot.module.functions.values():
            for blk in fn.blocks.values():
                pending = set()
                for instr in blk.instructions:
                    if instr.opcode == "check":
                        pending.discard(instr.origin)
                    elif instr.is_sync_point:
                        assert not pending, (
                            f"unchecked duplicates {pending} at sync point "
                            f"{instr.opcode} in {blk.name}"
                        )
                    elif instr.origin is not None:
                        pending.add(instr.origin)

    def test_fault_on_protected_instruction_detected(self, sumsq_profile):
        m, _, data, prof = sumsq_profile
        fmul = [i.iid for i in m.instructions() if i.opcode == "fmul"]
        prot = duplicate_instructions(m, fmul)
        pp = Program(prot.module)
        new_iid = prot.iid_map[fmul[0]]
        with pytest.raises(DetectedError):
            pp.run(args=[16], bindings=data, fault=FaultSpec(new_iid, 3, 60))

    def test_fault_on_duplicate_also_detected(self, sumsq_profile):
        m, _, data, prof = sumsq_profile
        fmul = [i.iid for i in m.instructions() if i.opcode == "fmul"]
        prot = duplicate_instructions(m, fmul)
        pp = Program(prot.module)
        dup_iid = prot.dup_map[fmul[0]]
        with pytest.raises(DetectedError):
            pp.run(args=[16], bindings=data, fault=FaultSpec(dup_iid, 3, 60))

    def test_immediate_placement(self, sumsq_profile):
        m, _, data, prof = sumsq_profile
        fmul = [i.iid for i in m.instructions() if i.opcode == "fmul"]
        prot = duplicate_instructions(m, fmul, check_placement="immediate")
        run = Program(prot.module).run(args=[16], bindings=data)
        assert run.output  # behaviour preserved

    def test_immediate_placement_check_adjacent(self, sumsq_profile):
        """The ablation's check follows its duplicate with nothing between."""
        m, _, _, prof = sumsq_profile
        fmul = [i.iid for i in m.instructions() if i.opcode == "fmul"]
        prot = duplicate_instructions(m, fmul, check_placement="immediate")
        for fn in prot.module.functions.values():
            for blk in fn.blocks.values():
                seq = blk.instructions
                for k, instr in enumerate(seq):
                    if instr.origin in fmul and instr.opcode != "check":
                        assert seq[k + 1].opcode == "check"
                        assert seq[k + 1].origin == instr.origin

    def test_duplication_inside_loop_body(self, sumsq_profile):
        """In-loop duplicates re-execute per iteration and stay checked."""
        m, p, data, prof = sumsq_profile
        fmul = [i.iid for i in m.instructions() if i.opcode == "fmul"]
        loop_blocks = {
            blk.name
            for fn in m.functions.values()
            for blk in fn.blocks.values()
            for i in blk.instructions
            if i.iid in fmul
        }
        prot = duplicate_instructions(m, fmul)
        placed = {
            blk.name
            for fn in prot.module.functions.values()
            for blk in fn.blocks.values()
            for i in blk.instructions
            if i.origin in fmul
        }
        assert placed == loop_blocks  # pair stays in the loop body block
        golden = p.run(args=[16], bindings=data)
        run = Program(prot.module).run(args=[16], bindings=data)
        assert run.output == golden.output
        # One dynamic check per loop iteration, not one per program.
        from repro.vm.profiler import profile_run as _profile
        counts = _profile(
            Program(prot.module), args=[16], bindings=data
        ).instr_counts
        chk = [
            i.iid for i in prot.module.instructions()
            if i.opcode == "check" and i.origin == fmul[0]
        ]
        assert counts[chk[0]] == 16

    def test_store_placement_checks_only_before_stores(self, sumsq_profile):
        m, p, data, prof = sumsq_profile
        fmul = [i.iid for i in m.instructions() if i.opcode == "fmul"]
        prot = duplicate_instructions(m, fmul, check_placement="store")
        for fn in prot.module.functions.values():
            for blk in fn.blocks.values():
                seq = blk.instructions
                for k, instr in enumerate(seq):
                    if instr.opcode == "check":
                        assert seq[k + 1].opcode == "store"
        run = Program(prot.module).run(args=[16], bindings=data)
        assert run.output == p.run(args=[16], bindings=data).output

    def test_origin_mapping(self, sumsq_profile):
        m, _, _, prof = sumsq_profile
        sel = select_instructions(prof, 0.3)
        prot = duplicate_instructions(m, sel.selected)
        for old, new in prot.iid_map.items():
            assert prot.origin_of(new) == old
        for old, dup in prot.dup_map.items():
            assert prot.origin_of(dup) == old

    def test_cannot_duplicate_void(self, sumsq_profile):
        m, _, _, _ = sumsq_profile
        store = [i.iid for i in m.instructions() if i.opcode == "store"][0]
        with pytest.raises(ConfigError):
            duplicate_instructions(m, [store])

    def test_original_module_untouched(self, sumsq_profile):
        m, _, _, prof = sumsq_profile
        before = m.instruction_count()
        duplicate_instructions(m, prof.iids[:3])
        assert m.instruction_count() == before


class TestCoverage:
    def test_measured_coverage(self):
        assert measured_coverage(0.4, 0.1) == pytest.approx(0.75)
        assert measured_coverage(0.4, 0.0) == 1.0
        assert measured_coverage(0.0, 0.1) is None

    def test_measured_coverage_clamped(self):
        assert measured_coverage(0.1, 0.5) == 0.0

    def test_coverage_loss(self):
        assert coverage_loss(0.9, 0.5) == pytest.approx(0.4)
        assert coverage_loss(0.9, 0.95) == 0.0
        assert coverage_loss(0.9, None) == 0.0

    def test_protection_reduces_sdc_probability(self, sumsq_profile):
        m, p, data, prof = sumsq_profile
        sel = select_instructions(prof, 0.7)
        prot = duplicate_instructions(m, sel.selected)
        pu = run_campaign(p, 150, seed=9, args=[16], bindings=data).sdc_probability
        pp = run_campaign(
            Program(prot.module), 150, seed=10, args=[16], bindings=data
        ).sdc_probability
        assert pp < pu


class TestPipeline:
    def test_classic_sid_end_to_end(self, sumsq_profile):
        m, _, data, _ = sumsq_profile
        res = classic_sid(
            m, [16], data, SIDConfig(protection_level=0.5, per_instruction_trials=4)
        )
        assert 0.0 <= res.expected_coverage <= 1.0
        assert res.protected.checks > 0
        assert res.selection.used_budget <= 0.5 + 1e-9

    def test_pipeline_deterministic(self, sumsq_profile):
        m, _, data, _ = sumsq_profile
        cfg = SIDConfig(protection_level=0.4, per_instruction_trials=4, seed=77)
        a = classic_sid(m, [16], data, cfg)
        b = classic_sid(m, [16], data, cfg)
        assert a.selection.selected == b.selection.selected
        assert a.expected_coverage == b.expected_coverage
