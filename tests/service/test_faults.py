"""Fault-injection plumbing: parsing ``--inject`` specs and the
``slow-phase`` fault burning time on the service clock."""

import pytest

from repro.bench.runner import run_algorithm
from repro.errors import ServiceError
from repro.service.executor import BatchExecutor, ManualClock
from repro.service.faults import parse_faults
from repro.service.jobs import JobSpec, resolve_graph

JOB = JobSpec(job_id="j1", graph={"suite": "rmat", "scale": 0.05})


class TestParseFaults:
    def test_empty(self):
        assert parse_faults([]) == 0.0

    def test_defaults(self):
        assert parse_faults(["slow-phase"]) == pytest.approx(0.05)

    def test_explicit_values(self):
        assert parse_faults(["slow-phase:0.2"]) == pytest.approx(0.2)

    @pytest.mark.parametrize("spec", ["slow-phase:-1", "slow-phase:soon", "cosmic-ray"])
    def test_bad_specs(self, spec):
        with pytest.raises(ServiceError):
            parse_faults([spec])


class TestSlowPhase:
    def test_slow_phase_burns_clock(self, tmp_path):
        phases = []
        run_algorithm(JOB.algorithm, resolve_graph(JOB), phase_hook=phases.append)
        clock = ManualClock()
        [out] = BatchExecutor(tmp_path / "run", slow_phase_seconds=0.25,
                              clock=clock).run_batch([JOB])
        assert out.status == "done"
        assert len(phases) > 1
        assert clock.now() == pytest.approx(0.25 * len(phases))

    def test_no_fault_burns_no_time(self, tmp_path):
        clock = ManualClock()
        [out] = BatchExecutor(tmp_path / "run", clock=clock).run_batch([JOB])
        assert out.status == "done" and clock.now() == 0.0
