"""Job model of the batch matching service.

A *job* is one matching request: a graph source (suite spec or file), an
algorithm, and an optional engine override, plus runtime policy (deadline,
seed). Jobs are declarative and deterministic — resolving the same spec
twice yields the same graph — which is what makes checkpoint/resume sound:
a resumed run re-derives the graph and re-certifies the stored matching
against it instead of trusting the checkpoint blindly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence, Union

from repro.bench.runner import ALGORITHMS, ENGINE_AWARE
from repro.bench.suite import suite_specs
from repro.core.driver import ENGINES
from repro.errors import ServiceError
from repro.graph.csr import BipartiteCSR
from repro.graph.readers import GRAPH_FORMATS, read_graph_file


@dataclass(frozen=True)
class JobSpec:
    """One matching request in a batch queue.

    ``graph`` is either ``{"suite": name, "scale": s}`` (a deterministic
    generator instance from :mod:`repro.bench.suite`) or
    ``{"path": file, "format": fmt}`` (an on-disk graph;
    ``fmt in ("auto", "mtx", "snap", "dimacs", "npz")``).
    ``deadline_seconds`` is the per-job cooperative soft timeout; ``None``
    inherits the executor default.
    """

    job_id: str
    graph: Mapping[str, Any]
    algorithm: str = "ms-bfs-graft"
    engine: Optional[str] = None
    seed: int = 0
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.job_id or "/" in self.job_id or self.job_id != self.job_id.strip():
            raise ServiceError(
                f"job id {self.job_id!r} must be a non-empty slash-free token "
                f"(it names the checkpoint file)"
            )
        if self.algorithm not in ALGORITHMS:
            raise ServiceError(
                f"job {self.job_id!r}: unknown algorithm {self.algorithm!r}; "
                f"known: {sorted(ALGORITHMS)}"
            )
        if self.engine is not None:
            if self.engine not in ENGINES:
                raise ServiceError(
                    f"job {self.job_id!r}: unknown engine {self.engine!r}; "
                    f"known: {ENGINES}"
                )
            if self.algorithm not in ENGINE_AWARE:
                raise ServiceError(
                    f"job {self.job_id!r}: algorithm {self.algorithm!r} does not "
                    f"accept an engine override (only {ENGINE_AWARE} do)"
                )
        if not ("suite" in self.graph) ^ ("path" in self.graph):
            raise ServiceError(
                f"job {self.job_id!r}: graph spec must name exactly one of "
                f"'suite' or 'path', got {dict(self.graph)!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ServiceError(
                f"job {self.job_id!r}: deadline must be positive, "
                f"got {self.deadline_seconds}"
            )

    @property
    def engine_aware(self) -> bool:
        """Whether the job runs on the MS-BFS-Graft driver (the engine
        override, the deadline and the slow-phase fault apply only there)."""
        return self.algorithm in ENGINE_AWARE

    @property
    def run_engine(self) -> Optional[str]:
        """The engine the job runs on: its override, else ``"auto"``;
        ``None`` for engine-unaware algorithms, which have a single native
        implementation."""
        return (self.engine or "auto") if self.engine_aware else None

    def digest(self) -> str:
        """Stable content hash of the spec (guards stale checkpoints)."""
        payload = {
            "job_id": self.job_id,
            "graph": dict(self.graph),
            "algorithm": self.algorithm,
            "engine": self.engine,
            "seed": self.seed,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "graph": dict(self.graph),
            "algorithm": self.algorithm,
            "engine": self.engine,
            "seed": self.seed,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        known = {"job_id", "graph", "algorithm", "engine", "seed", "deadline_seconds"}
        unknown = set(data) - known
        if unknown:
            raise ServiceError(f"unknown job spec field(s) {sorted(unknown)}")
        if "job_id" not in data or "graph" not in data:
            raise ServiceError("job spec needs at least 'job_id' and 'graph'")
        return cls(
            job_id=str(data["job_id"]),
            graph=dict(data["graph"]),
            algorithm=data.get("algorithm", "ms-bfs-graft"),
            engine=data.get("engine"),
            seed=int(data.get("seed", 0)),
            deadline_seconds=data.get("deadline_seconds"),
        )


def resolve_graph(spec: JobSpec, cache=None) -> BipartiteCSR:
    """Materialise a job's graph from its declarative source.

    ``cache`` is an optional :class:`repro.cache.GraphCache`; with it, both
    suite and file sources resolve through the content-addressed store
    (memory-mapped on hit, built-and-stored on miss). Resolution stays
    deterministic either way — cached and uncached loads are bit-identical,
    which is what keeps checkpoint resume sound.
    """
    source = spec.graph
    if "suite" in source:
        scale = float(source.get("scale", 1.0))
        name = str(source["suite"])
        if cache is not None:
            return cache.prepare_suite(name, scale).graph
        from repro.bench.suite import get_suite_graph

        return get_suite_graph(name, scale=scale).graph
    path = Path(str(source["path"]))
    fmt = str(source.get("format", "auto"))
    if fmt != "auto" and fmt not in GRAPH_FORMATS:
        raise ServiceError(f"unknown graph format {fmt!r}; known: {sorted(GRAPH_FORMATS)}")
    if cache is not None:
        return cache.prepare_file(path, fmt).graph
    return read_graph_file(path, fmt)[0]


def load_jobs_file(path: Union[str, Path]) -> List[JobSpec]:
    """Read a batch queue from a JSON file (a list of job spec objects)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(data, Mapping) and "jobs" in data:
        data = data["jobs"]
    if not isinstance(data, list):
        raise ServiceError(f"{path}: expected a JSON list of job specs")
    jobs = [JobSpec.from_dict(entry) for entry in data]
    _check_unique_ids(jobs)
    return jobs


def suite_jobs(
    *,
    algorithm: str = "ms-bfs-graft",
    scale: float = 0.2,
    graphs: Optional[Sequence[str]] = None,
    engine: Optional[str] = None,
    seed: int = 0,
    deadline_seconds: Optional[float] = None,
) -> List[JobSpec]:
    """The Table II suite as a batch queue: one job per suite graph.

    This is the paper's evaluation workload phrased as service jobs, so an
    interrupted suite run resumes instead of recomputing.
    """
    names = list(graphs) if graphs is not None else list(suite_specs())
    jobs = [
        JobSpec(
            job_id=f"{name}-{algorithm}",
            graph={"suite": name, "scale": scale},
            algorithm=algorithm,
            engine=engine,
            seed=seed,
            deadline_seconds=deadline_seconds,
        )
        for name in names
    ]
    _check_unique_ids(jobs)
    return jobs


def _check_unique_ids(jobs: Sequence[JobSpec]) -> None:
    seen: dict = {}
    for job in jobs:
        if job.job_id in seen:
            raise ServiceError(f"duplicate job id {job.job_id!r} in batch queue")
        seen[job.job_id] = job


@dataclass
class JobOutcome:
    """Terminal state of one job after the executor is done with it."""

    spec: JobSpec
    status: str  # "done" | "resumed" | "timeout" | "failed"
    engine_used: Optional[str] = None
    cardinality: Optional[int] = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.status in ("done", "resumed")
