"""Communication statistics (an mpiP-style profiling layer).

The paper reasons about its communication volumes analytically (face
sizes, Section 3.3); a workflow developer wants them *measured*. When a
:class:`~repro.mpi.comm.Job` is created with ``collect_stats=True``,
every send — point-to-point and collective-internal alike — is counted
by (source, destination, kind), and :meth:`CommStats.render` reports
message counts, byte volumes, and the peer matrix.

The counters see the *implementation* traffic: a binomial-tree bcast on
8 ranks records its 7 internal messages, which is exactly what a real
mpiP would show and makes algorithm costs visible in tests.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class CommTotals:
    messages: int
    bytes: int


class CommStats:
    """Thread-safe per-job communication counters."""

    def __init__(self, nranks: int):
        self.nranks = nranks
        self._lock = threading.Lock()
        #: (src, dst) -> [messages, bytes] for point-to-point traffic
        self._p2p: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0])
        #: collective name -> [messages, bytes] of internal traffic
        self._coll: dict[str, list[int]] = defaultdict(lambda: [0, 0])

    # -- recording (called from Comm internals) --------------------------
    def record_p2p(self, src: int, dst: int, nbytes: int) -> None:
        with self._lock:
            entry = self._p2p[(src, dst)]
            entry[0] += 1
            entry[1] += nbytes

    def record_coll(self, name: str, nbytes: int) -> None:
        with self._lock:
            entry = self._coll[name]
            entry[0] += 1
            entry[1] += nbytes

    # -- queries ----------------------------------------------------------
    def p2p_totals(self) -> CommTotals:
        with self._lock:
            return CommTotals(
                messages=sum(v[0] for v in self._p2p.values()),
                bytes=sum(v[1] for v in self._p2p.values()),
            )

    def coll_totals(self) -> CommTotals:
        with self._lock:
            return CommTotals(
                messages=sum(v[0] for v in self._coll.values()),
                bytes=sum(v[1] for v in self._coll.values()),
            )

    def pair(self, src: int, dst: int) -> CommTotals:
        with self._lock:
            messages, nbytes = self._p2p.get((src, dst), (0, 0))
            return CommTotals(messages=messages, bytes=nbytes)

    def collective(self, name: str) -> CommTotals:
        with self._lock:
            messages, nbytes = self._coll.get(name, (0, 0))
            return CommTotals(messages=messages, bytes=nbytes)

    def to_metrics(self, registry) -> None:
        """Export every counter into a metrics registry.

        Point-to-point traffic becomes ``mpi.p2p.pair.messages`` /
        ``mpi.p2p.pair.bytes`` counters labeled by (src, dst); each
        collective's internal traffic becomes ``mpi.coll.messages`` /
        ``mpi.coll.bytes`` labeled by operation. Exporting is additive,
        so stats from several jobs can accumulate in one registry.
        """
        with self._lock:
            p2p_rows = list(self._p2p.items())
            coll_rows = list(self._coll.items())
        for (src, dst), (messages, nbytes) in p2p_rows:
            registry.counter("mpi.p2p.pair.messages", src=src, dst=dst).inc(
                messages
            )
            registry.counter("mpi.p2p.pair.bytes", src=src, dst=dst).inc(
                nbytes
            )
        for name, (messages, nbytes) in coll_rows:
            registry.counter("mpi.coll.messages", op=name).inc(messages)
            registry.counter("mpi.coll.bytes", op=name).inc(nbytes)

    def render(self) -> str:
        from repro.util.tables import Table
        from repro.util.units import format_bytes

        p2p = self.p2p_totals()
        coll = self.coll_totals()
        table = Table(
            ["traffic", "messages", "volume"],
            title=f"communication statistics ({self.nranks} ranks)",
        )
        table.add_row(["point-to-point", p2p.messages, format_bytes(p2p.bytes)])
        with self._lock:
            coll_rows = sorted(self._coll.items())
        for name, (messages, nbytes) in coll_rows:
            table.add_row([f"  {name}", messages, format_bytes(nbytes)])
        table.add_row(["collectives (total)", coll.messages, format_bytes(coll.bytes)])
        return table.render()
