"""Batch job-execution service for matching workloads.

The paper's whole evaluation (the Table II suite, Figs. 1-8) is a batch of
long-running matching jobs; at production scale such a batch must survive a
hung instance or a killed process. This package runs a queue of
:class:`~repro.service.jobs.JobSpec` requests, one engine run per job,
under per-job cooperative deadlines, checkpoints every certified matching
through :mod:`repro.graph.serialize`, and resumes an interrupted run
without recomputing completed jobs. The engines are deterministic, so a
failed run is a failed job: nothing is retried or re-run on another
engine. ``repro-match batch`` is the CLI front end;
``docs/service.md`` documents the job model, the JSONL event schema, and
the failure semantics.

The online half (:mod:`repro.service.online`) is a resident daemon for
streaming workloads: per-graph sessions (:mod:`repro.service.sessions`)
absorbing edge-update batches over a line-delimited JSON protocol
(:mod:`repro.service.protocol`), repaired incrementally by one batched
multi-source BFS per request. ``repro-match serve`` starts it.
"""

from repro.core.options import Deadline
from repro.errors import DeadlineExceeded, ServiceError
from repro.service.checkpoint import RunDirectory
from repro.service.events import EventLog, read_events, summarize_events
from repro.service.executor import BatchExecutor, ManualClock, SystemClock
from repro.service.faults import KNOWN_FAULTS, parse_faults
from repro.service.jobs import (
    JobOutcome,
    JobSpec,
    load_jobs_file,
    resolve_graph,
    suite_jobs,
)
from repro.service.online import MatchingDaemon, OnlineClient, OnlineConfig
from repro.service.sessions import Session, SessionManager

__all__ = [
    "BatchExecutor",
    "Deadline",
    "DeadlineExceeded",
    "EventLog",
    "JobOutcome",
    "JobSpec",
    "KNOWN_FAULTS",
    "ManualClock",
    "MatchingDaemon",
    "OnlineClient",
    "OnlineConfig",
    "RunDirectory",
    "ServiceError",
    "Session",
    "SessionManager",
    "SystemClock",
    "load_jobs_file",
    "parse_faults",
    "read_events",
    "resolve_graph",
    "suite_jobs",
    "summarize_events",
]
