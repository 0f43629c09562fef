"""Simulated machine specifications.

:class:`MachineSpec` captures the hardware parameters that the paper's
Section IV-A lists in Table I, plus the handful of cost coefficients the
cost model needs. Two presets reproduce the paper's testbeds:

* :data:`MIRASOL` — 4-socket, 10-core Intel Westmere-EX E7-4870, 2-way SMT
  (80 hardware threads), the machine behind Figs. 3, 4, 6, 7 and 5(a);
* :data:`EDISON` — one 2-socket, 12-core Ivy Bridge E5-2695v2 node of the
  Cray XC30 (48 hardware threads), behind Fig. 5(b).

Cost coefficients are calibrated so the *shape* of the paper's scaling data
holds (near-linear inside a socket, bandwidth knee, ~20% SMT bonus, barrier
overhead limiting small graphs); absolute nanoseconds are not meaningful and
EXPERIMENTS.md documents the calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MachineConfigError


@dataclass(frozen=True)
class MachineSpec:
    """Topology and cost coefficients of a simulated shared-memory node."""

    name: str
    sockets: int
    cores_per_socket: int
    smt: int = 2
    clock_ghz: float = 2.4

    # --- cost coefficients (nanoseconds / dimensionless) ---------------- #
    unit_cost_ns: float = 6.0
    """Cost of one work unit (≈ one irregular edge traversal) on an
    otherwise idle thread."""
    barrier_base_ns: float = 1500.0
    barrier_per_thread_ns: float = 400.0
    """Barrier cost grows with log2(p): base + per_thread * log2(p)."""
    numa_remote_factor: float = 1.65
    """Latency multiplier for remote-socket memory accesses. With threads on
    k sockets and interleaved allocation, (k-1)/k of accesses are remote."""
    bandwidth_threads_per_socket: float = 7.0
    """Per-socket memory bandwidth saturates beyond this many busy cores;
    additional cores on the socket add no traversal throughput."""
    smt_gain: float = 0.22
    """Extra throughput a core gains from running its second hardware
    thread (the paper measured +22% on Mirasol, +19% on Edison)."""
    irregular_access_factor: float = 3.0
    """Latency multiplier for dependent pointer-chasing work (DFS descents,
    augmentation flips, push-relabel scans) relative to streaming
    level-synchronous sweeps. Behind the paper's observation (Section V-C,
    Fig. 4) that DFS-based algorithms search at several-fold lower MTEPS."""
    atomic_cost_ns: float = 18.0
    atomic_contention_coef: float = 0.25
    """Effective atomic cost = atomic_cost_ns * (1 + coef * log2(p))."""
    queue_capacity: int = 1024
    """Private-queue entries per flush to the shared queue (Graph500
    omp-csr scheme); one atomic fetch-and-add per flush."""

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1 or self.smt < 1:
            raise MachineConfigError(f"invalid topology in {self.name!r}")
        if self.unit_cost_ns <= 0:
            raise MachineConfigError("unit_cost_ns must be positive")
        if self.numa_remote_factor < 1.0:
            raise MachineConfigError("numa_remote_factor must be >= 1")
        if not 0.0 <= self.smt_gain <= 1.0:
            raise MachineConfigError("smt_gain must be in [0, 1]")

    # --- derived topology ------------------------------------------------ #

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def max_threads(self) -> int:
        return self.total_cores * self.smt

    def sockets_used(self, threads: int) -> int:
        """Sockets occupied under compact pinning.

        The paper pins threads compactly via GOMP_CPU_AFFINITY/KMP_AFFINITY.
        Linux numbers all physical cores before SMT siblings, so the first
        ``total_cores`` threads land on distinct cores socket by socket (the
        paper's 40-thread Mirasol runs use all four sockets without
        hyperthreading); only beyond that do SMT siblings fill in.
        """
        self._check_threads(threads)
        if threads >= self.cores_per_socket:
            # Past one socket's cores, additional sockets engage; SMT
            # siblings reuse already-occupied sockets.
            return min(self.sockets, math.ceil(min(threads, self.total_cores) / self.cores_per_socket))
        return 1

    def numa_factor(self, threads: int) -> float:
        """Average memory-access multiplier with interleaved allocation.

        With k sockets in use, (k-1)/k of pages live on a remote socket.
        Single-socket runs use local allocation (numactl), factor 1.0.
        """
        k = self.sockets_used(threads)
        if k <= 1:
            return 1.0
        remote_share = (k - 1) / k
        return 1.0 + remote_share * (self.numa_remote_factor - 1.0)

    def compute_capacity(self, threads: int) -> float:
        """Aggregate execution throughput of ``threads`` compactly-pinned
        hardware threads, in single-thread units.

        One thread per physical core up to ``total_cores`` (linear growth);
        beyond that each SMT sibling adds only ``smt_gain``.
        """
        self._check_threads(threads)
        primary = min(threads, self.total_cores)
        siblings = threads - primary
        return primary + self.smt_gain * siblings

    def bandwidth_factor(self, threads: int) -> float:
        """Traversal slowdown once per-socket memory bandwidth saturates.

        Returns >= 1; multiplies traversal time. With ``c`` busy cores on the
        busiest socket, factor = max(1, c / bandwidth_threads_per_socket).
        """
        k = self.sockets_used(threads)
        busy_cores = min(math.ceil(min(threads, self.total_cores) / k), self.cores_per_socket)
        return max(1.0, busy_cores / self.bandwidth_threads_per_socket)

    def barrier_ns(self, threads: int) -> float:
        if threads <= 1:
            return 0.0
        return self.barrier_base_ns + self.barrier_per_thread_ns * math.log2(threads)

    def atomic_ns(self, threads: int) -> float:
        """Effective cost of one atomic RMW under ``threads``-way contention."""
        scale = 1.0 + self.atomic_contention_coef * math.log2(max(1, threads))
        return self.atomic_cost_ns * scale

    def _check_threads(self, threads: int) -> None:
        if threads < 1:
            raise MachineConfigError(f"thread count must be >= 1, got {threads}")
        if threads > self.max_threads:
            raise MachineConfigError(
                f"{self.name} supports at most {self.max_threads} threads, got {threads}"
            )


MIRASOL = MachineSpec(
    name="Mirasol",
    sockets=4,
    cores_per_socket=10,
    smt=2,
    clock_ghz=2.4,
    smt_gain=0.22,
)
"""The paper's 40-core Intel Westmere-EX E7-4870 machine (Table I)."""

EDISON = MachineSpec(
    name="Edison",
    sockets=2,
    cores_per_socket=12,
    smt=2,
    clock_ghz=2.4,
    smt_gain=0.19,
    # The Cray XC30 node has higher per-core bandwidth (DDR3-1866, fewer
    # cores per memory controller).
    bandwidth_threads_per_socket=8.0,
)
"""One node of the Cray XC30 (dual 12-core Ivy Bridge E5-2695 v2, Table I)."""

LAPTOP = MachineSpec(
    name="Laptop",
    sockets=1,
    cores_per_socket=8,
    smt=2,
)
"""A generic single-socket machine, handy for examples and tests."""

MANYCORE = MachineSpec(
    name="Manycore",
    sockets=1,
    cores_per_socket=64,
    smt=4,
    clock_ghz=1.4,
    # Many simple cores: slower single-thread, cheap on-die sync, wide
    # high-bandwidth memory, and SMT that genuinely hides latency.
    unit_cost_ns=12.0,
    barrier_base_ns=800.0,
    barrier_per_thread_ns=150.0,
    bandwidth_threads_per_socket=32.0,
    smt_gain=0.35,
)
"""A KNL-style manycore with 256 hardware threads — for the paper's §V-D
conjecture that MS-BFS-Graft "is expected to scale better than its
competitors on the future manycore systems with hardware threads"."""
