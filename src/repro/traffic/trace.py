"""Network trace format.

A *trace* is a time-ordered stream of :class:`InjectionEvent` records —
the requests that cores hand to their cluster router.  Responses are
generated closed-loop by the simulator (the L3 bank or the peer cluster
answers each request after a service latency), which is what makes the
power-scaling feedback realistic: a slower network delays responses and
therefore future injections' buffer pressure.

Traces can be serialised to a simple CSV-like text format so that the
ML pipeline can collect features once and retrain offline, mirroring
the paper's Multi2Sim-trace / network-simulator split.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from ..noc.packet import CacheLevel, CoreType, Packet, PacketClass


@dataclass(frozen=True)
class InjectionEvent:
    """One core-generated packet injection.

    Traces keep events sorted by ``cycle``; ties preserve generator
    order (stable sort), which keeps merged traces deterministic.
    """

    cycle: int
    source: int
    destination: int
    core_type: CoreType
    packet_class: PacketClass
    cache_level: CacheLevel
    size_flits: int = 1

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("event cycle cannot be negative")
        if self.size_flits <= 0:
            raise ValueError("event must carry at least one flit")

    def to_packet(self) -> Packet:
        """Materialise the event as a network packet."""
        return Packet(
            self.source,
            self.destination,
            self.core_type,
            self.packet_class,
            self.cache_level,
            self.size_flits,
            self.cycle,
        )


class Trace:
    """A finite, time-ordered sequence of injection events."""

    def __init__(
        self, events: Iterable[InjectionEvent], name: str = "trace"
    ) -> None:
        self.events: List[InjectionEvent] = sorted(
            events, key=lambda e: e.cycle
        )
        self.name = name

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[InjectionEvent]:
        return iter(self.events)

    @property
    def duration(self) -> int:
        """Cycle of the last event (0 for an empty trace)."""
        return self.events[-1].cycle if self.events else 0

    def packets_by_core_type(self) -> "dict[CoreType, int]":
        """Event counts per core type (used by the Fig. 4 breakdown)."""
        counts = {CoreType.CPU: 0, CoreType.GPU: 0}
        for event in self.events:
            counts[event.core_type] += 1
        return counts

    @staticmethod
    def merge(traces: Sequence["Trace"], name: str = "merged") -> "Trace":
        """Time-merge several traces into one (CPU + GPU benchmark pair)."""
        merged = list(
            heapq.merge(
                *(trace.events for trace in traces), key=lambda e: e.cycle
            )
        )
        return Trace(merged, name=name)

    # -- serialisation -------------------------------------------------------

    _HEADER = "cycle,source,destination,core_type,packet_class,cache_level,size_flits"

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a text file with a header line."""
        path = Path(path)
        with path.open("w") as fh:
            fh.write(f"# {self.name}\n")
            fh.write(self._HEADER + "\n")
            for e in self.events:
                fh.write(
                    f"{e.cycle},{e.source},{e.destination},"
                    f"{e.core_type.value},{e.packet_class.value},"
                    f"{e.cache_level.value},{e.size_flits}\n"
                )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        name = path.stem
        events: List[InjectionEvent] = []
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    if line.startswith("# "):
                        name = line[2:]
                    continue
                if line == cls._HEADER:
                    continue
                (
                    cycle,
                    source,
                    destination,
                    core_type,
                    packet_class,
                    cache_level,
                    size_flits,
                ) = line.split(",")
                events.append(
                    InjectionEvent(
                        cycle=int(cycle),
                        source=int(source),
                        destination=int(destination),
                        core_type=CoreType(core_type),
                        packet_class=PacketClass(packet_class),
                        cache_level=CacheLevel(cache_level),
                        size_flits=int(size_flits),
                    )
                )
        return cls(events, name=name)


class TraceCursor:
    """Streaming view over a trace for the cycle loop.

    ``pop_ready(cycle)`` returns every event whose time has come, in
    order, exactly once: an event is returned by the first call whose
    ``cycle`` reaches it and by no later call, so a caller stepping
    cycle-by-cycle and a caller that jumps straight to the same cycle
    observe identical event batches (the array core's idle skipping
    relies on this boundary semantics).

    ``next_cycle()`` exposes the cycle of the next unpopped event — the
    trace's contribution to the array core's event horizon.
    """

    __slots__ = ("_events", "_cycles", "_index", "_count")

    def __init__(self, trace: Trace) -> None:
        self._events = trace.events
        # Parallel list of event cycles so pop_ready can batch via
        # bisect (C-speed) instead of walking events one by one.
        self._cycles = [event.cycle for event in self._events]
        self._index = 0
        self._count = len(self._events)

    @property
    def exhausted(self) -> bool:
        """True when every event has been popped."""
        return self._index >= self._count

    def next_cycle(self) -> Optional[int]:
        """Cycle of the next unpopped event (None once exhausted)."""
        index = self._index
        return self._cycles[index] if index < self._count else None

    def pop_ready(self, cycle: int) -> List[InjectionEvent]:
        """Events with ``event.cycle <= cycle`` not yet returned."""
        start = self._index
        if start >= self._count or self._cycles[start] > cycle:
            return []
        end = bisect_right(self._cycles, cycle, start)
        self._index = end
        return self._events[start:end]
