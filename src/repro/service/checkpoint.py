"""Run-directory layout: matching checkpoints and the report cache.

A batch run lives in one directory; the file names are the only index::

    run_dir/
        events.jsonl                          # structured event log (append-only)
        checkpoints/<job_id>.<digest>.npy     # certified matching per completed job
        reports/<name>.<key>.txt              # experiment stage cache (optional)

``<digest>`` is :meth:`~repro.service.jobs.JobSpec.digest`, so a job is
done iff the checkpoint of its current spec exists; a changed spec simply
addresses another file, and recording it removes the job's older ones. A
checkpoint is one ``int64`` array of ``mate_x ++ mate_y ++ crc32``, the
graph cache's matching format (:mod:`repro.graph.serialize`). Resume
reads it against the re-resolved graph (header, shape, CRC, consistent
mates) and re-certifies it with ``verify_maximum``; anything less
recomputes — resume never trusts bytes it cannot re-verify. Every file
is written through a temp file unique to the call and renamed into
place, so concurrent runs on one directory never clobber each other's
writes.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Union

from repro.graph.serialize import read_matching, replacing, write_matching
from repro.matching.base import Matching


class RunDirectory:
    """Filesystem handle for one batch run's persistent state."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.checkpoints = self.root / "checkpoints"
        self.checkpoints.mkdir(exist_ok=True)
        self.reports = self.root / "reports"
        self.events_path = self.root / "events.jsonl"

    # ------------------------------------------------------------------ #
    # job checkpoints
    # ------------------------------------------------------------------ #

    def checkpoint_path(self, job_id: str, digest: str) -> Path:
        return self.checkpoints / f"{job_id}.{digest}.npy"

    def record_done(self, job_id: str, digest: str, matching: Matching) -> Path:
        """Persist a completed job's matching; atomic (temp + rename).

        The job's checkpoints under other digests (earlier specs) are then
        removed. Only ``<job_id>.<16 hex>.npy`` names match, so job ``a.b``
        never touches job ``a.b.c``'s files.
        """
        path = self.checkpoint_path(job_id, digest)
        write_matching(path, matching)
        own = re.compile(re.escape(job_id) + r"\.[0-9a-f]{16}\.npy")
        for stale in self.checkpoints.iterdir():
            if stale != path and own.fullmatch(stale.name):
                stale.unlink(missing_ok=True)
        return path

    def load_checkpoint(self, job_id: str, digest: str, n_x: int, n_y: int) -> Matching:
        """The job's checkpointed matching for an ``n_x`` by ``n_y`` graph.

        Raises ``OSError`` if there is none and
        :class:`~repro.errors.CacheCorruptionError` if it does not read
        (wrong shape, failed CRC, inconsistent mates).
        """
        return read_matching(self.checkpoint_path(job_id, digest), n_x, n_y)

    # ------------------------------------------------------------------ #
    # experiment stage cache
    # ------------------------------------------------------------------ #

    def report_path(self, name: str, key: str) -> Path:
        return self.reports / f"{name}.{key}.txt"

    def cached_report(self, name: str, key: str) -> Optional[str]:
        """A completed experiment report, iff cached under the same key."""
        try:
            return self.report_path(name, key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def record_report(self, name: str, key: str, text: str) -> None:
        """Cache one experiment's rendered report; atomic (temp + rename)."""
        self.reports.mkdir(exist_ok=True)
        with replacing(self.report_path(name, key)) as tmp:
            tmp.write_text(text, encoding="utf-8")
