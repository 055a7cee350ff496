"""The in-process fleet transport: channels, fault application, counters.

A :class:`Channel` is a thread-safe FIFO of byte payloads — the in-process
stand-in for one direction of a socket.  A :class:`FleetTransport` owns one
downlink channel per endpoint (server → client: patches) and one shared
uplink (clients → server: failure reports, monitored runs, acks), and
applies an optional :class:`~repro.fleet.faults.FaultPlan` at the network
boundary: every payload that crosses it can be dropped, duplicated,
reordered, delayed past the iteration deadline, truncated, or bit-flipped
before the far side sees it.

Only **bytes** ever cross a channel.  The server and clients exchange no
object references; everything round-trips through
:mod:`repro.fleet.wire`, which is what makes the fault model meaningful —
a corrupt payload really is a corrupt payload, and the receiving side must
survive it.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .faults import FaultPlan


class TransportClosed(Exception):
    """Send or receive on a closed channel."""
    pass


class Channel:
    """A thread-safe FIFO of byte payloads (one direction of a socket)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._closed = False
        self.sent = 0
        self.received = 0
        self.bytes_sent = 0

    def send(self, payload: bytes) -> None:
        with self._lock:
            if self._closed:
                raise TransportClosed(f"channel {self.name!r} is closed")
            self._queue.append(payload)
            self.sent += 1
            self.bytes_sent += len(payload)

    def recv(self) -> Optional[bytes]:
        """Pop the oldest payload, or None when the channel is empty."""
        with self._lock:
            if not self._queue:
                return None
            self.received += 1
            return self._queue.popleft()

    def drain(self) -> List[bytes]:
        """Pop everything currently queued, oldest first."""
        with self._lock:
            out = list(self._queue)
            self._queue.clear()
            self.received += len(out)
            return out

    def recv_many(self, max_n: int) -> List[bytes]:
        """Pop up to ``max_n`` payloads, oldest first, under one lock
        acquisition — the amortized alternative to calling :meth:`recv`
        in a loop when the consumer wants bounded batches."""
        if max_n <= 0:
            return []
        with self._lock:
            queue = self._queue
            if len(queue) <= max_n:
                out = list(queue)
                queue.clear()
            else:
                out = [queue.popleft() for _ in range(max_n)]
            self.received += len(out)
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._queue.clear()


@dataclass
class TransportStats:
    """What the transport counted, per message class."""

    sent: Counter = field(default_factory=Counter)
    delivered: Counter = field(default_factory=Counter)
    dropped: Counter = field(default_factory=Counter)
    duplicated: Counter = field(default_factory=Counter)
    reordered: Counter = field(default_factory=Counter)
    delayed: Counter = field(default_factory=Counter)
    truncated: Counter = field(default_factory=Counter)
    corrupted: Counter = field(default_factory=Counter)
    bytes_sent: int = 0

    def as_dict(self) -> Dict:
        return {
            "sent": dict(self.sent),
            "delivered": dict(self.delivered),
            "dropped": dict(self.dropped),
            "duplicated": dict(self.duplicated),
            "reordered": dict(self.reordered),
            "delayed": dict(self.delayed),
            "truncated": dict(self.truncated),
            "corrupted": dict(self.corrupted),
            "bytes_sent": self.bytes_sent,
        }


class FleetTransport:
    """One server ↔ N endpoints, all traffic as encoded bytes.

    All sends happen on the deployment's aggregation thread, in run-id
    order, so a seeded fault plan yields one deterministic fault schedule
    for any ``fleet_workers`` value.
    """

    def __init__(self, endpoints: int,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if endpoints < 1:
            raise ValueError("need at least one endpoint")
        self.downlinks = [Channel(f"server->client{i}")
                          for i in range(endpoints)]
        self.uplink = Channel("clients->server")
        self.fault_plan = fault_plan
        self._active = fault_plan is not None and not fault_plan.is_null
        self.stats = TransportStats()
        #: Reorder buffer: at most one held payload per channel.
        self._held: Dict[Channel, Tuple[bytes, str]] = {}
        #: Payloads delayed past the current iteration deadline.
        self._delayed: List[Tuple[Channel, bytes, str]] = []

    # -- sending ------------------------------------------------------------

    def send_to_client(self, endpoint_id: int, payload: bytes, *,
                       msg_type: str, key: Tuple) -> None:
        self._transmit(self.downlinks[endpoint_id], payload, msg_type,
                       ("dn", endpoint_id) + key)

    def send_to_server(self, payload: bytes, *, msg_type: str,
                       key: Tuple, straggle: bool = False) -> None:
        """Client → server.  ``straggle=True`` forces delivery past the
        deadline (the client-level straggler fault)."""
        channel = self.uplink
        if straggle:
            self.stats.sent[msg_type] += 1
            self.stats.bytes_sent += len(payload)
            self.stats.delayed[msg_type] += 1
            self._delayed.append((channel, payload, msg_type))
            return
        self._transmit(channel, payload, msg_type, ("up",) + key)

    def _transmit(self, channel: Channel, payload: bytes, msg_type: str,
                  key: Tuple) -> None:
        stats = self.stats
        stats.sent[msg_type] += 1
        stats.bytes_sent += len(payload)
        if self._active:
            decision = self.fault_plan.decide(msg_type, key, len(payload))
            if decision.drop:
                stats.dropped[msg_type] += 1
                return
            if decision.truncate_at is not None:
                payload = payload[:decision.truncate_at]
                stats.truncated[msg_type] += 1
            if decision.corrupt_at is not None and payload:
                index, bit = decision.corrupt_at
                index %= len(payload)
                mangled = bytearray(payload)
                mangled[index] ^= 1 << bit
                payload = bytes(mangled)
                stats.corrupted[msg_type] += 1
            if decision.delay:
                stats.delayed[msg_type] += 1
                self._delayed.append((channel, payload, msg_type))
                return
            if decision.reorder and channel not in self._held:
                stats.reordered[msg_type] += 1
                self._held[channel] = (payload, msg_type)
                return
            self._deliver(channel, payload, msg_type)
            if decision.duplicate:
                stats.duplicated[msg_type] += 1
                self._deliver(channel, payload, msg_type)
            return
        self._deliver(channel, payload, msg_type)

    def _deliver(self, channel: Channel, payload: bytes,
                 msg_type: str) -> None:
        channel.send(payload)
        self.stats.delivered[msg_type] += 1
        held = self._held.pop(channel, None)
        if held is not None:  # a reordered payload lands right after
            channel.send(held[0])
            self.stats.delivered[held[1]] += 1

    # -- deadline -----------------------------------------------------------

    def flush(self) -> int:
        """The iteration deadline passed: release every held and delayed
        payload into its channel.  Returns how many were released."""
        released = 0
        for channel, (payload, msg_type) in list(self._held.items()):
            channel.send(payload)
            self.stats.delivered[msg_type] += 1
            released += 1
        self._held.clear()
        for channel, payload, msg_type in self._delayed:
            channel.send(payload)
            self.stats.delivered[msg_type] += 1
            released += 1
        self._delayed.clear()
        return released

    def close(self) -> None:
        for channel in self.downlinks:
            channel.close()
        self.uplink.close()


@dataclass
class FleetReport:
    """End-of-campaign fleet accounting (rides on ``CampaignStats``)."""

    transport: Dict = field(default_factory=dict)
    quarantined: int = 0
    stale_discarded: int = 0
    duplicates_ignored: int = 0
    unmonitored_reports: int = 0
    runs_lost_to_crash: int = 0
    runs_lost_to_churn: int = 0
    client_decode_failures: int = 0
    patch_resends: int = 0
    #: Server-side fault accounting: simulated server kills survived via
    #: journal replay, and acks the server deferred one pump round.
    server_crashes: int = 0
    acks_delayed: int = 0
    #: Write-ahead journal accounting (``{}`` when journaling is off).
    journal: Dict = field(default_factory=dict)
    fault_plan: str = ""

    def as_dict(self) -> Dict:
        return {
            "transport": self.transport,
            "quarantined": self.quarantined,
            "stale_discarded": self.stale_discarded,
            "duplicates_ignored": self.duplicates_ignored,
            "unmonitored_reports": self.unmonitored_reports,
            "runs_lost_to_crash": self.runs_lost_to_crash,
            "runs_lost_to_churn": self.runs_lost_to_churn,
            "client_decode_failures": self.client_decode_failures,
            "patch_resends": self.patch_resends,
            "server_crashes": self.server_crashes,
            "acks_delayed": self.acks_delayed,
            "journal": self.journal,
            "fault_plan": self.fault_plan,
        }
