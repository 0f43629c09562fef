"""The surfaces that certify a fresh engine result take the supplied-cover path.

Every MS-BFS-Graft run attaches its final forest's Y side to the matching
(``Matching.cover_y``), and ``verify_maximum`` checks that König cover in one
edge pass instead of sweeping. With the sweep (``alternating_reach``) patched
to raise, ``repro-match run``, a batch job and a daemon ``match verify:true``
must still certify. A resumed checkpoint carries no cover, so it must sweep.
"""

import json

import pytest

from repro.cli import main
from repro.matching import verify
from repro.service.executor import BatchExecutor, ManualClock
from repro.service.jobs import JobSpec
from repro.service.online import MatchingDaemon, OnlineConfig
from repro.telemetry import Telemetry

GRAPH = {"suite": "rmat", "scale": 0.05}


@pytest.fixture
def no_sweep(monkeypatch):
    def tripwire(*args, **kwargs):
        raise AssertionError("verify_maximum fell back to the alternating sweep")

    monkeypatch.setattr(verify, "alternating_reach", tripwire)


@pytest.fixture
def sweeps(monkeypatch):
    calls = []
    sweep = verify.alternating_reach

    def counting(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(verify, "alternating_reach", counting)
    return calls


def test_cli_run_certifies_without_sweep(no_sweep, capsys):
    assert main(["run", "--graph", "rmat", "--scale", "0.05"]) == 0
    assert "(maximum, certified)" in capsys.readouterr().out


def test_batch_job_certifies_without_sweep(no_sweep, tmp_path):
    ex = BatchExecutor(tmp_path / "run", clock=ManualClock())
    [out] = ex.run_batch([JobSpec(job_id="j1", graph=GRAPH)])
    assert out.status == "done"


def test_daemon_match_verify_after_update_certifies_without_sweep(no_sweep, tmp_path):
    daemon = MatchingDaemon(OnlineConfig(socket_path=tmp_path / "d.sock"),
                            telemetry=Telemetry())

    def send(**data):
        response = daemon.handle_line(json.dumps(data))
        assert response["ok"], response
        return response["result"]

    send(id=1, cmd="create", session="g", n_x=4, n_y=4, edges=[[0, 0], [1, 0]])
    send(id=2, cmd="update", session="g", inserts=[[1, 1], [2, 1], [2, 2]],
         deletes=[[0, 0]])
    result = send(id=3, cmd="match", session="g", verify=True)
    assert result["verified"] is True and result["cardinality"] == 2


def test_checkpoint_resume_recertifies_by_sweep(sweeps, tmp_path):
    job = JobSpec(job_id="j1", graph=GRAPH)
    [first] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([job])
    assert first.status == "done" and sweeps == []
    [second] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([job])
    assert second.status == "resumed"
    assert second.cardinality == first.cardinality
    assert len(sweeps) == 1
