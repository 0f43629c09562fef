"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The model follows Prometheus conventions so the text exporter is a direct
serialisation: a *family* is one metric name with one type and help string;
an *instrument* is a family member with a fixed label set. Counters only go
up (``_total`` suffix by convention, enforced by the exposition lint);
histograms use fixed bucket boundaries chosen at registration, so merging
and export never re-bin.

``registry.counter/gauge/histogram`` are get-or-create: asking twice for
the same ``(name, labels)`` returns the same instrument, which lets
decoupled call sites (engines, service, CLI) share one registry without
coordinating registration order.
"""

from __future__ import annotations

import math
import re
import threading
import warnings
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TelemetryError

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelItems = Tuple[Tuple[str, str], ...]

DEFAULT_SECONDS_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)
"""Latency-style buckets (seconds), roughly log-spaced."""

FRONTIER_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)
"""Power-of-4 buckets for frontier sizes — the Fig. 8 trajectories span
several orders of magnitude within one run."""

PATH_LENGTH_BUCKETS = (1, 3, 5, 7, 9, 13, 21, 35, 57, 93)
"""Odd augmenting-path lengths (edges); sub-Fibonacci growth mirrors the
paper's observation that most paths are short with a long tail."""


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        if not LABEL_NAME_RE.match(key):
            raise TelemetryError(f"invalid label name {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


class _Instrument:
    """Shared identity of one (family, label-set) time series."""

    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """A value that can go up and down (e.g. live frontier size)."""

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram(_Instrument):
    """Fixed-boundary histogram with a cumulative-bucket exposition.

    ``buckets`` are the upper bounds of the finite buckets; an implicit
    ``+Inf`` bucket always exists. ``bucket_counts[i]`` is the *non*
    cumulative count of observations ``<= buckets[i]`` (strictly greater
    than the previous bound); the exporter cumulates.
    """

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, name: str, labels: LabelItems, buckets: Sequence[float]) -> None:
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name!r} needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise TelemetryError(
                f"histogram {name!r} bucket bounds must be strictly increasing: {bounds}"
            )
        if any(math.isinf(b) for b in bounds):
            raise TelemetryError(
                f"histogram {name!r}: the +Inf bucket is implicit, do not list it"
            )
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # [..., +Inf]
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe every value in ``values`` with one vectorised update.

        Same buckets, sum and count as calling :meth:`observe` per value:
        ``searchsorted(..., side="left")`` picks the first bound ``>=`` each
        value, and ``bincount`` tallies them, the +Inf bucket included.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        index = np.searchsorted(np.asarray(self.buckets), arr, side="left")
        tally = np.bincount(index, minlength=len(self.bucket_counts))
        total = float(arr.sum())
        with self._lock:
            for i, c in enumerate(tally.tolist()):
                self.bucket_counts[i] += c
            self.sum += total
            self.count += int(arr.size)

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per bound, ending with the +Inf total."""
        out: List[int] = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (Prometheus ``histogram_quantile`` rule).

        Linear interpolation within the bucket that crosses rank
        ``q * count``. Edge cases follow Prometheus: an empty histogram has
        no quantiles (``nan``, like ``histogram_quantile`` over an empty
        range vector), and observations that land in the +Inf bucket clamp
        to the highest finite bound — so a histogram whose every sample
        overflowed reports that top bound, never inf. Used by the online
        daemon's ``stats``/``metrics`` commands for repair-latency
        percentiles.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self.count
            if total == 0:
                return math.nan
            rank = q * total
            running = 0
            for i, c in enumerate(self.bucket_counts[:-1]):
                prev = running
                running += c
                if running >= rank and c:
                    lower = self.buckets[i - 1] if i > 0 else 0.0
                    upper = self.buckets[i]
                    return lower + (upper - lower) * ((rank - prev) / c)
            # Rank falls in the implicit +Inf bucket (possibly because every
            # sample did): clamp to the top finite bound.
            return float(self.buckets[-1])


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

DEFAULT_MAX_LABEL_SETS = 64
"""Cap on distinct label sets per family (see
:class:`MetricsRegistry`). Generous for the fixed vocabularies the engines
and services use (≤ ~10 label sets per family today) while bounding what a
label derived from request data — session names in the online daemon —
can allocate."""


class MetricsRegistry:
    """Holds every metric family of one telemetry session.

    One registry per run/batch; the exporters serialise it whole. Families
    are keyed by name; instruments by ``(name, labels)``.

    ``max_label_sets`` guards label cardinality: once a family holds that
    many distinct label sets, further *new* label sets are dropped — the
    caller still receives a working instrument, but a detached one that is
    never exported and never retained, so unbounded per-request labels
    (e.g. one session label per client) cannot grow the registry without
    limit. The first drop per family warns once through :mod:`warnings`.
    """

    def __init__(self, *, max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> None:
        if max_label_sets < 1:
            raise TelemetryError(
                f"max_label_sets must be >= 1, got {max_label_sets}"
            )
        self.max_label_sets = int(max_label_sets)
        self._lock = threading.Lock()
        self._families: Dict[str, Tuple[str, str, Tuple[float, ...]]] = {}
        self._instruments: Dict[Tuple[str, LabelItems], _Instrument] = {}
        self._family_sizes: Dict[str, int] = {}
        self.dropped_label_sets: Dict[str, int] = {}
        """Per-family count of label sets refused by the cardinality cap."""

    # ------------------------------------------------------------------ #
    # registration (get-or-create)
    # ------------------------------------------------------------------ #

    def _get_or_create(
        self,
        kind: str,
        name: str,
        help: str,
        labels: Optional[Mapping[str, str]],
        buckets: Tuple[float, ...] = (),
    ) -> _Instrument:
        if not METRIC_NAME_RE.match(name):
            raise TelemetryError(f"invalid metric name {name!r}")
        items = _label_items(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                self._families[name] = (kind, help, buckets)
            else:
                if family[0] != kind:
                    raise TelemetryError(
                        f"metric {name!r} already registered as {family[0]}, not {kind}"
                    )
                if kind == "histogram" and family[2] != buckets:
                    raise TelemetryError(
                        f"histogram {name!r} already registered with buckets "
                        f"{family[2]}, not {buckets}"
                    )
            instrument = self._instruments.get((name, items))
            if instrument is None:
                if kind == "histogram":
                    instrument = Histogram(name, items, buckets)
                else:
                    instrument = _TYPES[kind](name, items)
                if self._family_sizes.get(name, 0) >= self.max_label_sets:
                    # Warn-and-drop: hand back a detached instrument so the
                    # call site keeps working, but never retain or export it.
                    if name not in self.dropped_label_sets:
                        warnings.warn(
                            f"metric {name!r} reached the label-cardinality cap "
                            f"({self.max_label_sets} label sets); further label "
                            f"sets are dropped from the registry",
                            RuntimeWarning,
                            stacklevel=3,
                        )
                    self.dropped_label_sets[name] = (
                        self.dropped_label_sets.get(name, 0) + 1
                    )
                else:
                    self._instruments[(name, items)] = instrument
                    self._family_sizes[name] = self._family_sizes.get(name, 0) + 1
            return instrument

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        instrument = self._get_or_create("counter", name, help, labels)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        instrument = self._get_or_create("gauge", name, help, labels)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        *,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        instrument = self._get_or_create(
            "histogram", name, help, labels, tuple(float(b) for b in buckets)
        )
        assert isinstance(instrument, Histogram)
        return instrument

    # ------------------------------------------------------------------ #
    # collection
    # ------------------------------------------------------------------ #

    def families(self) -> List[Tuple[str, str, str, List[_Instrument]]]:
        """``(name, kind, help, instruments)`` sorted by family name."""
        with self._lock:
            out = []
            for name in sorted(self._families):
                kind, help, _ = self._families[name]
                members = [
                    inst
                    for (fam, _), inst in sorted(self._instruments.items())
                    if fam == name
                ]
                out.append((name, kind, help, members))
            return out

    def total(self, name: str) -> float:
        """Sum of a counter or gauge family's exported values (0 if the
        family was never registered)."""
        with self._lock:
            return sum(
                inst.value for (fam, _), inst in self._instruments.items() if fam == name
            )

    def get(self, name: str, labels: Optional[Mapping[str, str]] = None) -> _Instrument:
        """Look up an existing instrument; raises if never registered."""
        instrument = self._instruments.get((name, _label_items(labels)))
        if instrument is None:
            raise TelemetryError(f"metric {name!r} with labels {labels!r} not registered")
        return instrument
