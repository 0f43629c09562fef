"""Dynamic race detector: benign/harmful classification end to end.

The three acceptance behaviours from the race-semantics story:

1. on a contended graph where several threads extend the same alternating
   tree, the ``leaf[root]`` race *is* detected and classified benign, and
   no harmful race exists (the paper's claim, now machine-checked);
2. de-atomising the ``visited`` claim via fault injection turns the same
   run into one with harmful races on ``visited``;
3. a race-free region (disjoint single-edge trees) reports zero races.
"""

import numpy as np
import pytest

from repro.analysis.racecheck import (
    AccessEvent,
    BulkRaceMonitor,
    DEFAULT_WHITELIST,
    RaceMonitor,
    find_races,
    run_racecheck,
)
from repro.core.options import GraftOptions
from repro.errors import ReproError
from repro.graph.generators import planted_matching, random_bipartite
from repro.matching.greedy import greedy_matching
from repro.parallel.shared import READ, WRITE

SEEDS = range(8)


@pytest.fixture(scope="module")
def contended():
    """Graph + partial matching whose trees span several threads."""
    graph = random_bipartite(30, 30, 120, seed=42)
    init = greedy_matching(graph, shuffle=True, seed=1).matching
    return graph, init


class TestBenignRaces:
    def test_leaf_race_detected_and_benign(self, contended):
        graph, init = contended
        leaf_races = 0
        for seed in SEEDS:
            outcome = run_racecheck(graph, init, threads=4, seed=seed)
            assert outcome.report.harmful == [], outcome.report.summary()
            leaf_races += sum(1 for r in outcome.report.benign if r.array == "leaf")
        assert leaf_races > 0, "no benign leaf race observed across seeds"

    def test_benign_runs_still_maximum(self, contended):
        graph, init = contended
        from tests.conftest import reference_maximum

        expected = reference_maximum(graph)
        for seed in SEEDS:
            outcome = run_racecheck(graph, init, threads=4, seed=seed)
            assert outcome.result is not None
            assert outcome.result.cardinality == expected
            assert outcome.ok

    def test_invariants_checked_during_run(self, contended):
        graph, init = contended
        outcome = run_racecheck(graph, init, threads=4, seed=0)
        assert outcome.invariant_checks > 0
        assert outcome.report.error is None

    def test_events_carry_thread_and_region(self, contended):
        graph, init = contended
        monitor_events = run_racecheck(graph, init, threads=4, seed=0)
        report = monitor_events.report
        assert report.events > 0
        assert report.regions > 0


class TestHarmfulRaces:
    def test_non_atomic_visited_flagged_harmful(self, contended):
        graph, init = contended
        harmful_on_visited = 0
        for seed in SEEDS:
            outcome = run_racecheck(
                graph, init, threads=4, seed=seed,
                fault_injection=("non-atomic-visited",),
            )
            harmful_on_visited += sum(
                1 for r in outcome.report.harmful if r.array == "visited"
            )
        assert harmful_on_visited > 0, (
            "de-atomised visited claim was not flagged harmful in any schedule"
        )

    def test_fault_does_not_create_false_benign(self, contended):
        """Injected visited races must never be whitelisted."""
        graph, init = contended
        for seed in range(4):
            outcome = run_racecheck(
                graph, init, threads=4, seed=seed,
                fault_injection=("non-atomic-visited",),
            )
            assert all(r.array != "visited" for r in outcome.report.benign)

    def test_unknown_fault_rejected(self, contended):
        graph, init = contended
        from repro.core.engine_interleaved import run_interleaved
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown fault"):
            run_interleaved(
                graph, init, GraftOptions(), fault_injection=("no-such-fault",)
            )


class TestRaceFreeRegions:
    def test_disjoint_trees_report_zero_races(self):
        graph = planted_matching(16, extra_edges=0, seed=0)
        for seed in range(5):
            outcome = run_racecheck(
                graph, None, threads=4, seed=seed,
                options=GraftOptions(direction_optimizing=False),
            )
            assert outcome.report.races == []
            assert outcome.result is not None
            assert outcome.result.cardinality == 16

    def test_single_thread_reports_zero_races(self, contended):
        graph, init = contended
        outcome = run_racecheck(graph, init, threads=1, seed=0)
        assert outcome.report.races == []


class TestRaceAnalysis:
    """Unit-level checks of the happens-before classifier."""

    @staticmethod
    def ev(region, thread, kind, atomic, array="a", index=0, step=0):
        return AccessEvent(
            region=region, step=step, thread=thread,
            array=array, index=index, kind=kind, atomic=atomic,
        )

    def test_both_atomic_never_race(self):
        events = [self.ev(0, 0, "w", True), self.ev(0, 1, "w", True),
                  self.ev(0, 2, "r", True)]
        assert find_races(events) == []

    def test_plain_write_vs_atomic_read_races(self):
        events = [self.ev(0, 0, "w", False), self.ev(0, 1, "r", True)]
        races = find_races(events)
        assert len(races) == 1 and not races[0].benign
        assert not races[0].write_write

    def test_cross_region_accesses_are_barrier_ordered(self):
        events = [self.ev(0, 0, "w", False), self.ev(1, 1, "w", False)]
        assert find_races(events) == []

    def test_same_thread_never_races(self):
        events = [self.ev(0, 3, "w", False), self.ev(0, 3, "r", False)]
        assert find_races(events) == []

    def test_leaf_write_write_is_benign(self):
        events = [self.ev(0, 0, "w", False, array="leaf"),
                  self.ev(0, 1, "w", False, array="leaf")]
        races = find_races(events)
        assert len(races) == 1 and races[0].benign and races[0].write_write

    def test_root_x_write_write_is_harmful(self):
        """The root_x whitelist entry only excuses stale *reads*."""
        events = [self.ev(0, 0, "w", False, array="root_x"),
                  self.ev(0, 1, "w", False, array="root_x")]
        races = find_races(events)
        assert len(races) == 1 and not races[0].benign

    def test_root_x_read_write_is_benign(self):
        events = [self.ev(0, 0, "w", False, array="root_x"),
                  self.ev(0, 1, "r", False, array="root_x")]
        races = find_races(events)
        assert len(races) == 1 and races[0].benign

    def test_report_summary_renders(self):
        events = [self.ev(0, 0, "w", False, array="leaf"),
                  self.ev(0, 1, "w", False, array="leaf")]
        monitor = RaceMonitor(check_invariants=False)
        monitor.events = events
        report = monitor.analyze()
        text = report.summary()
        assert "benign" in text and "leaf" in text

    def test_whitelist_is_paper_shaped(self):
        arrays = {rule.array for rule in DEFAULT_WHITELIST}
        assert "leaf" in arrays
        assert "visited" not in arrays


class TestBulkMonitor:
    """The vectorized engine's self-reported access audit."""

    def test_record_bulk_expands_elementwise(self):
        monitor = BulkRaceMonitor()
        monitor.begin_region("topdown")
        monitor.record_bulk("visited", np.array([3, 7]), WRITE, True, np.array([0, 1]))
        monitor.record_bulk("root_x", np.array([5]), READ, False, np.array([2]))
        assert [(e.array, e.index, e.thread, e.atomic) for e in monitor.events] == [
            ("visited", 3, 0, True), ("visited", 7, 1, True), ("root_x", 5, 2, False),
        ]
        assert all(e.region == 1 for e in monitor.events)
        # Steps are globally increasing: program order within the region.
        assert [e.step for e in monitor.events] == [0, 1, 2]

    def test_broadcast_scalar_thread(self):
        monitor = BulkRaceMonitor()
        monitor.begin_region("augment")
        monitor.record_bulk("mate_x", np.array([1, 2, 3]), WRITE, False, 9)
        assert [e.thread for e in monitor.events] == [9, 9, 9]

    def test_regions_separate_kernel_calls(self):
        monitor = BulkRaceMonitor()
        monitor.begin_region("topdown")
        monitor.record_bulk("parent", np.array([0]), WRITE, False, np.array([1]))
        monitor.begin_region("bottomup")
        monitor.record_bulk("parent", np.array([0]), WRITE, False, np.array([2]))
        # Same location, different threads — but separated by a barrier.
        assert monitor.analyze().races == []
        assert monitor.region_kinds == ["topdown", "bottomup"]


class TestNumpyEngineRacecheck:
    """End-to-end audit of the vectorized fast path (satellite 4)."""

    def test_contended_run_has_no_harmful_races(self, contended):
        graph, init = contended
        outcome = run_racecheck(graph, init, engine="numpy")
        assert outcome.result is not None
        assert outcome.report.events > 0, "bulk kernels reported nothing"
        assert outcome.report.harmful == [], outcome.report.summary()

    def test_benign_leaf_race_visible_from_bulk_kernels(self, contended):
        graph, init = contended
        outcome = run_racecheck(graph, init, engine="numpy")
        arrays = {r.array for r in outcome.report.benign}
        assert "leaf" in arrays, (
            "the paper's benign leaf race must be observable through the "
            "bulk observer, not hidden by vectorization"
        )

    def test_numpy_audit_matches_reference_cardinality(self, contended):
        graph, init = contended
        from tests.conftest import reference_maximum

        outcome = run_racecheck(graph, init, engine="numpy")
        assert outcome.result.cardinality == reference_maximum(graph)
        assert outcome.ok

    def test_fault_injection_rejected_on_numpy(self, contended):
        graph, init = contended
        with pytest.raises(ReproError, match="fault injection"):
            run_racecheck(graph, init, engine="numpy",
                          fault_injection=("non-atomic-visited",))

    def test_unknown_engine_rejected(self, contended):
        graph, init = contended
        with pytest.raises(ReproError, match="unknown racecheck engine"):
            run_racecheck(graph, init, engine="openmp")


class TestTopDownGraftRacecheck:
    """A top-down grafting sweep claims ``visited`` by CAS, like a top-down
    level: several active X may reach one renewable row."""

    @pytest.fixture(scope="class")
    def audited(self):
        from repro.bench.suite import get_suite_graph
        from repro.core.engine_numpy import run_numpy
        from repro.telemetry.session import Telemetry

        # The racecheck CI step audits the same instance.
        graph = get_suite_graph("kkt-like", scale=0.02).graph
        init = greedy_matching(graph, shuffle=True, seed=1).matching
        monitor = BulkRaceMonitor()
        tel = Telemetry()
        options = GraftOptions(telemetry=tel, check_invariants=True)
        result = run_numpy(graph, init, options, observer=monitor)
        return graph, init, monitor, tel, result

    @staticmethod
    def sweeps(tel, direction):
        return tel.metrics.get(
            "repro_graft_sweeps_total", labels={"direction": direction}
        ).value

    def test_grafting_regions_claim_visited_atomically_when_top_down(self, audited):
        _, _, monitor, tel, _ = audited
        grafting = {
            i + 1 for i, kind in enumerate(monitor.region_kinds) if kind == "grafting"
        }
        claims = {}
        for ev in monitor.events:
            if ev.region in grafting and ev.array == "visited" and ev.kind == WRITE:
                claims.setdefault(ev.region, set()).add(ev.atomic)
        # A region's claims are all CAS (top-down) or all owned-row stores
        # (bottom-up), one region per sweep.
        assert all(len(kinds) == 1 for kinds in claims.values())
        atomic = sum(1 for kinds in claims.values() if kinds == {True})
        plain = sum(1 for kinds in claims.values() if kinds == {False})
        assert atomic == self.sweeps(tel, "topdown") > 0
        assert plain == self.sweeps(tel, "bottomup") > 0

    def test_top_down_grafting_has_no_harmful_races(self, audited):
        graph, init, monitor, _, result = audited
        from tests.conftest import reference_maximum

        assert monitor.analyze().harmful == []
        outcome = run_racecheck(graph, init, engine="numpy")
        assert outcome.ok, outcome.report.summary()
        assert outcome.result.cardinality == result.cardinality == reference_maximum(graph)
