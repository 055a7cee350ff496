"""The socket-backed fleet transport: real bytes, real backpressure.

Every transport so far moved payloads between Python deques in one
process.  This module gives the wire protocol an actual wire: an asyncio
TCP / Unix-domain-socket layer carrying the same
:class:`~repro.fleet.transport.Channel` send/recv contract over
length-prefixed frames, so the Gist server and the fleet can run as
genuinely separate processes (see :mod:`repro.fleet.serve`) — and so
ingest throughput is bounded by I/O batching, not per-message overhead.

Framing
-------

Logical channels (the uplink and one downlink per endpoint) are
multiplexed over one stream connection.  Each frame is::

    magic (u8) | kind (u8) | channel (u32) | count (u16) | payload_len (u32)

followed by ``payload_len`` bytes.  Channel 0 is the uplink; downlink
``i`` is channel ``i + 1``.  Frame kinds:

- ``DATA`` — ``count`` envelopes, each as ``len (u32) | bytes``.  This is
  where batching lives: the writer coalesces up to ``batch_messages``
  envelopes (or ``batch_bytes``, or a ``batch_ms`` time window) per frame,
  so 1k clients' monitored runs cost a handful of writes, not thousands.
- ``CREDIT`` — flow control: the receiver returns ``count`` consumed
  credits for ``channel``.
- ``CONTROL`` — a small JSON object (hello/done handshakes in serve mode).

Backpressure
------------

Every data channel runs a credit scheme with window ``W``
(:data:`DEFAULT_CREDIT_WINDOW`): a sender spends one credit per envelope
and blocks when the window is exhausted; the receiver returns credits as
envelopes are *popped* (consumed), one CREDIT frame per pop batch.  The
in-flight envelope count per channel therefore never exceeds ``W``, which
bounds the server's receive queues no matter how many thousand endpoints
pile onto the uplink — they stall at the socket instead of growing the
heap.

Determinism
-----------

The deployment's campaign loop is synchronous: it sends a run's messages,
then drains the uplink.  A socket in the middle makes delivery
asynchronous, so synchronized channels implement **flush-on-drain
quiescence**: ``drain()``/``recv_many()`` first request an immediate
writer flush and wait until everything sent so far has crossed the socket
(the sender-side ``sent`` counter equals the receiver-side delivery
counter — comparable because both endpoints of the pair live in this
process).  With that barrier the socket transport is observationally
identical to the in-memory one, and fault-free campaigns are
byte-identical to ``transport="wire"`` — while acks and monitored runs
still *pipeline* within a burst (nothing blocks per message, only the
drain point synchronizes).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import struct
import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .faults import FaultPlan
from .transport import FleetTransport, TransportClosed

#: Frame header: magic, kind, channel, count, payload_len.
FRAME_HEADER = struct.Struct("!BBIHI")
_BLOB_LEN = struct.Struct("!I")

FRAME_MAGIC = 0xA7
KIND_DATA = 1
KIND_CREDIT = 2
KIND_CONTROL = 3

#: The uplink's channel id; downlink ``i`` is ``CHAN_DOWNLINK_BASE + i``.
CHAN_UPLINK = 0
CHAN_DOWNLINK_BASE = 1

#: Batching defaults: how many envelopes / bytes one DATA frame may carry,
#: and how long the writer may wait for more traffic before writing.
DEFAULT_BATCH_MESSAGES = 256
DEFAULT_BATCH_BYTES = 256 * 1024
DEFAULT_BATCH_MS = 0.0

#: Largest frame payload a reader accepts.  A header announces its payload
#: length (a u32) before the payload arrives, so without a cap one corrupt
#: or hostile header would have the reader buffer up to 4 GiB.  A DATA
#: frame carries at most ``batch_bytes`` of envelopes (or one envelope on
#: its own), so peers refuse a larger ``batch_bytes``.  The largest
#: envelope measured over all 15 corpus bugs at ``repro corpus diagnose``'s
#: settings was a 6,317-byte monitored run (pbzip2-1); the cap is 64x the
#: default ``batch_bytes`` and holds a 1 MiB envelope many times over.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Per-channel flow-control window (envelopes in flight before a sender
#: blocks).  Both sides of a connection must agree on it.
DEFAULT_CREDIT_WINDOW = 4096

#: How long a sender may stall on credits, or a synchronized drain on
#: delivery, before the transport declares itself wedged.
DEFAULT_STALL_TIMEOUT = 30.0


class SocketProtocolError(Exception):
    """A malformed frame arrived (bad magic, unknown kind, oversized
    payload, a CONTROL payload that is not a JSON object)."""
    pass


def encode_control(obj: Dict) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _data_frame_segments(channel: int, blobs: List[bytes]) -> List:
    """One DATA frame as zero-copy segments.

    Envelopes were already encoded once (canonical wire bytes); wrapping
    them in :class:`memoryview` lets the writer splice them into the
    outgoing byte stream without a per-enqueue copy — only the tiny
    header and per-blob length prefixes are fresh allocations.  Joined in
    order, the segments are the frame: the header, then each blob behind
    its u32 length prefix (recorded frame bytes in the tests pin this).
    """
    payload_len = sum(len(b) + _BLOB_LEN.size for b in blobs)
    segments: List = [FRAME_HEADER.pack(FRAME_MAGIC, KIND_DATA, channel,
                                        len(blobs), payload_len)]
    for blob in blobs:
        segments.append(_BLOB_LEN.pack(len(blob)))
        segments.append(memoryview(blob))
    return segments


def _split_blobs(payload: bytes, count: int) -> List[bytes]:
    blobs = []
    offset = 0
    for _ in range(count):
        if offset + _BLOB_LEN.size > len(payload):
            raise SocketProtocolError("truncated DATA frame payload")
        (length,) = _BLOB_LEN.unpack_from(payload, offset)
        offset += _BLOB_LEN.size
        if offset + length > len(payload):
            raise SocketProtocolError("truncated DATA frame envelope")
        blobs.append(payload[offset:offset + length])
        offset += length
    return blobs


class _CreditGate:
    """Sender-side flow control for one data channel."""

    def __init__(self, window: int, stall_timeout: float) -> None:
        self._credits = window
        # A plain Lock, not the default RLock: acquire() runs once per
        # envelope on the producer's hot path.
        self._cond = threading.Condition(threading.Lock())
        self._closed = False
        self._close_reason: Optional[str] = None
        self._stall_timeout = stall_timeout
        self.stalls = 0

    def acquire(self, name: str) -> None:
        with self._cond:
            if self._credits <= 0 and not self._closed:
                self.stalls += 1
                if not self._cond.wait_for(
                        lambda: self._credits > 0 or self._closed,
                        timeout=self._stall_timeout):
                    raise TransportClosed(
                        f"channel {name!r}: backpressure stall (no credits "
                        f"granted within {self._stall_timeout}s)")
            if self._closed:
                detail = f" ({self._close_reason})" if self._close_reason \
                    else ""
                raise TransportClosed(
                    f"channel {name!r} is closed{detail}")
            self._credits -= 1

    def grant(self, n: int) -> None:
        with self._cond:
            self._credits += n
            self._cond.notify_all()

    def close(self, reason: Optional[str] = None) -> None:
        with self._cond:
            self._closed = True
            if reason and self._close_reason is None:
                self._close_reason = reason
            self._cond.notify_all()


class _RecvQueue:
    """Receiver-side inbox for one data channel.

    Filled by the hub's event-loop thread, drained by consumer threads;
    returns credits to the far side as envelopes are consumed.
    """

    def __init__(self, peer: "SocketPeer", channel: int) -> None:
        self._peer = peer
        self._channel = channel
        self._items: deque = deque()
        self._cond = threading.Condition(threading.Lock())
        #: Envelopes appended by the reader task (the quiescence target).
        self.delivered = 0
        self.popped = 0
        self.eof = False

    # event-loop side ------------------------------------------------------

    def _put_many(self, blobs: List[bytes]) -> None:
        with self._cond:
            self._items.extend(blobs)
            self.delivered += len(blobs)
            self._cond.notify_all()

    def _mark_eof(self) -> None:
        with self._cond:
            self.eof = True
            self._cond.notify_all()

    # consumer side --------------------------------------------------------

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def pop_many(self, max_n: Optional[int] = None,
                 timeout: Optional[float] = None) -> List[bytes]:
        with self._cond:
            if timeout is not None and not self._items and not self.eof:
                self._cond.wait_for(lambda: self._items or self.eof,
                                    timeout=timeout)
            items = self._items
            if max_n is None or len(items) <= max_n:
                out = list(items)
                items.clear()
            else:
                out = [items.popleft() for _ in range(max_n)]
            self.popped += len(out)
        if out:
            self._peer.enqueue_credit(self._channel, len(out))
        return out

    def wait_delivered(self, target: int, timeout: float) -> bool:
        """Block until ``target`` envelopes have been delivered (quiescence
        barrier).  Returns False on timeout or EOF short of target."""
        with self._cond:
            self._cond.wait_for(
                lambda: self.delivered >= target or self.eof,
                timeout=timeout)
            return self.delivered >= target


class SocketPeer:
    """One framed end of a stream connection, serviced by a
    :class:`SocketHub` event loop.

    Thread contract: :meth:`enqueue_data` / :meth:`enqueue_credit` /
    :meth:`send_control` / :meth:`request_flush` are callable from any
    thread; the reader/writer coroutines run on the hub loop.
    """

    def __init__(self, hub: "SocketHub",
                 batch_messages: int = DEFAULT_BATCH_MESSAGES,
                 batch_bytes: int = DEFAULT_BATCH_BYTES,
                 batch_ms: float = DEFAULT_BATCH_MS,
                 on_control: Optional[Callable] = None,
                 on_eof: Optional[Callable] = None,
                 name: str = "peer") -> None:
        if batch_bytes > MAX_FRAME_BYTES:
            raise ValueError(f"batch_bytes {batch_bytes} exceeds the "
                             f"{MAX_FRAME_BYTES}-byte frame cap")
        self.hub = hub
        self.name = name
        self.batch_messages = max(1, min(int(batch_messages), 0xFFFF))
        self.batch_bytes = max(1, int(batch_bytes))
        self.batch_ms = float(batch_ms)
        self._on_control = on_control
        self._on_eof = on_eof
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        # Outbox: ("data", chan, blob) | ("credit", chan, n) |
        # ("control", None, json bytes), appended by producer threads.
        self._outbox: List[Tuple[str, Optional[int], object]] = []
        self._out_lock = threading.Lock()
        self._wake_scheduled = False
        self._closing = False
        self._send_closed = False
        self._wake = asyncio.Event()
        self._flush_evt = asyncio.Event()
        self._tasks: List[asyncio.Task] = []
        #: chan -> _RecvQueue (incoming DATA routing).
        self.router: Dict[int, _RecvQueue] = {}
        #: chan -> _CreditGate (outgoing flow control).
        self.gates: Dict[int, _CreditGate] = {}
        self.eof = False
        # -- counters (loop thread writes, anyone reads) -------------------
        self.frames_sent = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.writes = 0
        self.max_frame_messages = 0
        self.credit_frames_sent = 0
        self.frames_received = 0
        self.messages_received = 0
        self.unrouted = 0
        self.protocol_errors = 0
        #: Set when the reader died on a malformed frame — distinguishes a
        #: corrupted/desynced stream from a clean disconnect for every
        #: wait path that observes this peer's EOF.
        self.protocol_error: Optional[str] = None

    # -- wiring --------------------------------------------------------------

    def open_receiver(self, channel: int) -> _RecvQueue:
        queue = _RecvQueue(self, channel)
        self.router[channel] = queue
        return queue

    def open_sender(self, channel: int, window: int,
                    stall_timeout: float) -> _CreditGate:
        gate = _CreditGate(window, stall_timeout)
        self.gates[channel] = gate
        return gate

    def _attach(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Bind the stream pair and spawn reader/writer tasks (loop side)."""
        self._reader = reader
        self._writer = writer
        loop = self.hub.loop
        self._tasks = [loop.create_task(self._reader_main()),
                       loop.create_task(self._writer_main())]

    # -- producer API (any thread) -------------------------------------------

    def _enqueue(self, item: Tuple[str, Optional[int], object],
                 flush: bool = False) -> None:
        with self._out_lock:
            if self._send_closed:
                raise TransportClosed(f"{self.name}: connection closed")
            self._outbox.append(item)
            need_wake = not self._wake_scheduled
            self._wake_scheduled = True
        if need_wake or flush:
            self.hub.loop.call_soon_threadsafe(self._wake_loopside, flush)

    def enqueue_data(self, channel: int, blob: bytes,
                     flush: bool = False) -> None:
        self._enqueue(("data", channel, blob), flush=flush)

    def enqueue_credit(self, channel: int, count: int) -> None:
        # Credits unblock a possibly-stalled sender: always flush.
        self._enqueue(("credit", channel, count), flush=True)

    def send_control(self, obj: Dict) -> None:
        self._enqueue(("control", None, encode_control(obj)), flush=True)

    def request_flush(self) -> None:
        if self.eof:
            return
        try:
            self.hub.loop.call_soon_threadsafe(self._wake_loopside, True)
        except RuntimeError:  # loop already closed
            pass

    def close(self) -> None:
        """Stop accepting sends; flush what is pending, then close the
        stream (the far side sees EOF).  Idempotent, any thread."""
        with self._out_lock:
            if self._send_closed:
                return
            self._send_closed = True
            self._closing = True
        for gate in self.gates.values():
            gate.close()
        try:
            self.hub.loop.call_soon_threadsafe(self._wake_loopside, True)
        except RuntimeError:
            pass

    # -- event-loop side -----------------------------------------------------

    def _wake_loopside(self, flush: bool) -> None:
        self._wake.set()
        if flush:
            self._flush_evt.set()

    def _take(self) -> Tuple[List, bool]:
        with self._out_lock:
            items = self._outbox
            self._outbox = []
            self._wake_scheduled = False
            return items, self._closing

    def _build_frames(self, items: List) -> List[List]:
        """Assemble outgoing frames as zero-copy segment lists.

        Each frame is a list of buffer segments — header bytes, length
        prefixes, and :class:`memoryview` slices over the pre-encoded
        envelope blobs — which the writer joins (or writes vectored)
        without ever re-copying envelope payloads into a per-frame
        ``bytes``.  ``b"".join`` of a frame's segments is the frame's
        on-wire bytes (pinned by the frame-format test against recorded
        frames).
        """
        frames: List[List] = []
        i = 0
        n = len(items)
        while i < n:
            kind, chan, data = items[i]
            if kind == "credit":
                count = int(data)
                while count > 0:
                    slab = min(count, 0xFFFF)
                    frames.append([FRAME_HEADER.pack(
                        FRAME_MAGIC, KIND_CREDIT, chan, slab, 0)])
                    count -= slab
                    self.credit_frames_sent += 1
                i += 1
                continue
            if kind == "control":
                frames.append([FRAME_HEADER.pack(
                    FRAME_MAGIC, KIND_CONTROL, 0, 1, len(data)), data])
                i += 1
                continue
            # DATA: coalesce a run of same-channel envelopes into one frame.
            blobs: List[bytes] = []
            size = 0
            j = i
            while j < n:
                kind2, chan2, blob = items[j]
                if kind2 != "data" or chan2 != chan:
                    break
                if blobs and (len(blobs) >= self.batch_messages
                              or size + len(blob) + _BLOB_LEN.size
                              > self.batch_bytes):
                    break
                blobs.append(blob)
                size += len(blob) + _BLOB_LEN.size
                j += 1
            frames.append(_data_frame_segments(chan, blobs))
            self.messages_sent += len(blobs)
            self.max_frame_messages = max(self.max_frame_messages,
                                          len(blobs))
            i = j
        return frames

    async def _writer_main(self) -> None:
        writer = self._writer
        coalesce_writes = self.batch_messages > 1
        try:
            while True:
                await self._wake.wait()
                self._wake.clear()
                if self.batch_ms > 0 and not self._flush_evt.is_set():
                    # The coalescing window: wait for more traffic, cut
                    # short the moment anyone requests a flush.
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(self._flush_evt.wait(),
                                               self.batch_ms / 1000.0)
                self._flush_evt.clear()
                items, closing = self._take()
                if items:
                    frames = self._build_frames(items)
                    self.frames_sent += len(frames)
                    if coalesce_writes:
                        # One join flattens every frame's segments —
                        # memoryviews included — straight into the write
                        # buffer: the only full copy of envelope bytes on
                        # the send path.
                        blob = b"".join(seg for frame in frames
                                        for seg in frame)
                        writer.write(blob)
                        await writer.drain()
                        self.writes += 1
                        self.bytes_sent += len(blob)
                    else:
                        # Unbatched mode pays one write syscall round per
                        # frame — the honest baseline batching is measured
                        # against.
                        for frame in frames:
                            blob = b"".join(frame)
                            writer.write(blob)
                            await writer.drain()
                            self.writes += 1
                            self.bytes_sent += len(blob)
                if closing:
                    with self._out_lock:
                        drained = not self._outbox
                    if drained:
                        break
        except (ConnectionResetError, BrokenPipeError, OSError,
                asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _reader_main(self) -> None:
        reader = self._reader
        try:
            while True:
                head = await reader.readexactly(FRAME_HEADER.size)
                magic, kind, chan, count, length = FRAME_HEADER.unpack(head)
                if magic != FRAME_MAGIC:
                    raise SocketProtocolError(
                        f"bad frame magic 0x{magic:02x}")
                if length > MAX_FRAME_BYTES:
                    raise SocketProtocolError(
                        f"frame payload of {length} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte cap")
                payload = await reader.readexactly(length) if length else b""
                self.frames_received += 1
                if kind == KIND_DATA:
                    blobs = _split_blobs(payload, count)
                    self.messages_received += len(blobs)
                    queue = self.router.get(chan)
                    if queue is not None:
                        queue._put_many(blobs)
                    else:
                        self.unrouted += len(blobs)
                elif kind == KIND_CREDIT:
                    gate = self.gates.get(chan)
                    if gate is not None:
                        gate.grant(count)
                elif kind == KIND_CONTROL:
                    try:
                        obj = json.loads(payload.decode("utf-8"))
                    except ValueError as exc:  # bad UTF-8 or bad JSON
                        raise SocketProtocolError(
                            f"CONTROL payload is not UTF-8 JSON: {exc}")
                    if not isinstance(obj, dict):
                        raise SocketProtocolError(
                            "CONTROL payload is not a JSON object")
                    if self._on_control is not None:
                        # May raise SocketProtocolError on a bad message.
                        self._on_control(obj, self)
                else:
                    raise SocketProtocolError(f"unknown frame kind {kind}")
        except (asyncio.IncompleteReadError, ConnectionResetError,
                OSError, asyncio.CancelledError):
            pass
        except SocketProtocolError as exc:
            self.protocol_errors += 1
            self.protocol_error = str(exc)
        finally:
            self._mark_eof()

    def _mark_eof(self) -> None:
        self.eof = True
        reason = (f"protocol error: {self.protocol_error}"
                  if self.protocol_error else None)
        for queue in self.router.values():
            queue._mark_eof()
        for gate in self.gates.values():
            gate.close(reason)
        if self._on_eof is not None:
            self._on_eof(self)

    # -- accounting ----------------------------------------------------------

    def stats(self) -> Dict:
        sent = self.messages_sent
        return {
            "frames_sent": self.frames_sent,
            "messages_sent": sent,
            "bytes_sent": self.bytes_sent,
            "writes": self.writes,
            "max_frame_messages": self.max_frame_messages,
            "credit_frames_sent": self.credit_frames_sent,
            "frames_received": self.frames_received,
            "messages_received": self.messages_received,
            "unrouted": self.unrouted,
            "protocol_errors": self.protocol_errors,
            "credit_stalls": sum(g.stalls for g in self.gates.values()),
        }


class SocketHub:
    """Owns the asyncio event loop (one daemon thread) that services every
    socket peer of a transport, a server, or a client."""

    def __init__(self, name: str = "gist-socket-hub") -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._started = threading.Event()
        self._peers: List[SocketPeer] = []
        self._servers: List[asyncio.AbstractServer] = []
        self._closed = False

    def start(self) -> "SocketHub":
        self._thread.start()
        self._started.wait(timeout=10)
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._started.set)
        try:
            self.loop.run_forever()
        finally:
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                with contextlib.suppress(Exception):
                    self.loop.run_until_complete(asyncio.gather(
                        *pending, return_exceptions=True))
            self.loop.close()

    def submit(self, coro, timeout: float = 10.0):
        """Run a coroutine on the hub loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout)

    # -- connection management -----------------------------------------------

    def adopt_socket(self, sock: socket.socket, **peer_opts) -> SocketPeer:
        """Wrap an already-connected OS socket in a serviced peer."""
        sock.setblocking(False)
        peer = SocketPeer(self, **peer_opts)

        async def _open():
            reader, writer = await asyncio.open_connection(sock=sock)
            peer._attach(reader, writer)
        self.submit(_open())
        self._peers.append(peer)
        return peer

    def open_pair(self, family: str = "unix",
                  **peer_opts) -> Tuple[SocketPeer, SocketPeer]:
        """A connected peer pair inside this process — the in-process
        socket transport's spine.  ``family="unix"`` uses a Unix-domain
        socketpair; ``"tcp"`` a loopback TCP connection (with NODELAY, so
        unbatched writes honestly cost a segment each)."""
        if family == "unix" and hasattr(socket, "AF_UNIX"):
            sock_a, sock_b = socket.socketpair()
        elif family in ("tcp", "unix"):
            listener = socket.create_server(("127.0.0.1", 0))
            port = listener.getsockname()[1]
            sock_a = socket.create_connection(("127.0.0.1", port))
            sock_b, _ = listener.accept()
            listener.close()
            for s in (sock_a, sock_b):
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            raise ValueError(f"unknown socket family {family!r}")
        name = peer_opts.pop("name", "pair")
        peer_a = self.adopt_socket(sock_a, name=f"{name}-a", **peer_opts)
        peer_b = self.adopt_socket(sock_b, name=f"{name}-b", **peer_opts)
        return peer_a, peer_b

    def serve(self, address: Tuple, on_peer: Callable[[SocketPeer], None],
              **peer_opts) -> None:
        """Listen on ``("unix", path)`` or ``("tcp", host, port)``; each
        accepted connection becomes a peer handed to ``on_peer``."""

        def handler_factory():
            async def handler(reader, writer):
                peer = SocketPeer(self, **peer_opts)
                peer._attach(reader, writer)
                self._peers.append(peer)
                on_peer(peer)
            return handler

        async def _start():
            if address[0] == "unix":
                server = await asyncio.start_unix_server(
                    handler_factory(), path=address[1])
            elif address[0] == "tcp":
                server = await asyncio.start_server(
                    handler_factory(), host=address[1], port=address[2])
            else:
                raise ValueError(f"unknown address {address!r}")
            self._servers.append(server)
        self.submit(_start())

    def connect(self, address: Tuple, **peer_opts) -> SocketPeer:
        """Connect to a serving hub at ``("unix", path)`` /
        ``("tcp", host, port)``."""
        peer = SocketPeer(self, **peer_opts)

        async def _open():
            if address[0] == "unix":
                reader, writer = await asyncio.open_unix_connection(
                    path=address[1])
            elif address[0] == "tcp":
                reader, writer = await asyncio.open_connection(
                    host=address[1], port=address[2])
            else:
                raise ValueError(f"unknown address {address!r}")
            peer._attach(reader, writer)
        self.submit(_open(), timeout=30.0)
        self._peers.append(peer)
        return peer

    def close(self) -> None:
        """Close every peer gracefully, then stop and join the loop."""
        if self._closed:
            return
        self._closed = True
        for peer in self._peers:
            peer.close()

        def _shutdown():
            for server in self._servers:
                server.close()
            self.loop.stop()
        # Give writers a moment to drain their closing flush.
        try:
            self.loop.call_soon_threadsafe(
                self.loop.call_later, 0.2, _shutdown)
        except RuntimeError:
            return
        self._thread.join(timeout=5.0)


class SocketChannel:
    """One direction of fleet traffic over the framed stream.

    Implements the :class:`~repro.fleet.transport.Channel` contract
    (``send`` / ``recv`` / ``recv_many`` / ``drain`` / ``__len__`` /
    ``close`` plus the ``sent`` / ``received`` / ``bytes_sent`` counters);
    the payloads it carries actually cross a socket.  ``synchronized=True``
    adds the flush-on-drain quiescence barrier described in the module
    docstring — required for byte-identical campaigns, skipped by the
    free-running serve/bench paths.
    """

    def __init__(self, name: str, channel_id: int,
                 send_peer: Optional[SocketPeer] = None,
                 gate: Optional[_CreditGate] = None,
                 queue: Optional[_RecvQueue] = None,
                 synchronized: bool = False,
                 stall_timeout: float = DEFAULT_STALL_TIMEOUT) -> None:
        self.name = name
        self.channel_id = channel_id
        self._peer = send_peer
        self._gate = gate
        self._queue = queue
        self._synchronized = synchronized
        self._stall_timeout = stall_timeout
        self._closed = False
        self.sent = 0
        self.received = 0
        self.bytes_sent = 0

    # -- sending -------------------------------------------------------------

    def send(self, payload: bytes) -> None:
        if self._closed:
            raise TransportClosed(f"channel {self.name!r} is closed")
        if self._peer is None:
            raise TransportClosed(f"channel {self.name!r} has no send side")
        self._gate.acquire(self.name)
        self._peer.enqueue_data(self.channel_id, payload)
        self.sent += 1
        self.bytes_sent += len(payload)

    # -- receiving -----------------------------------------------------------

    def _await_quiescent(self) -> None:
        """Block until every payload sent so far has crossed the socket."""
        target = self.sent
        queue = self._queue
        if queue.delivered >= target:
            return
        self._peer.request_flush()
        if not queue.wait_delivered(target, timeout=self._stall_timeout):
            cause = queue._peer.protocol_error
            if cause is not None:
                raise TransportClosed(
                    f"channel {self.name!r}: socket protocol error "
                    f"({cause}; {queue.delivered}/{target} delivered)")
            raise TransportClosed(
                f"channel {self.name!r}: socket transport stalled "
                f"({queue.delivered}/{target} delivered after "
                f"{self._stall_timeout}s)")

    def recv(self) -> Optional[bytes]:
        out = self.recv_many(1)
        return out[0] if out else None

    def recv_many(self, max_n: int,
                  timeout: Optional[float] = None) -> List[bytes]:
        if max_n <= 0:
            return []
        if self._synchronized:
            self._await_quiescent()
        out = self._queue.pop_many(max_n, timeout=timeout)
        self.received += len(out)
        return out

    def drain(self) -> List[bytes]:
        if self._synchronized:
            self._await_quiescent()
        out = self._queue.pop_many(None)
        self.received += len(out)
        return out

    def __len__(self) -> int:
        queue = self._queue
        return len(queue) if queue is not None else 0

    def close(self) -> None:
        self._closed = True


class SocketFleetTransport(FleetTransport):
    """The :class:`FleetTransport` contract over a real socket.

    Fault application, reorder buffers, deadline flushes, and statistics
    are inherited unchanged — a payload the fault plan drops never touches
    the socket, one it corrupts crosses corrupted — only the channels
    underneath are swapped for socket-backed ones: both ends of a
    Unix-domain socketpair (or loopback TCP connection) serviced by one
    asyncio hub, uplink and all downlinks multiplexed as framed channels.
    """

    def __init__(self, endpoints: int,
                 fault_plan: Optional[FaultPlan] = None, *,
                 family: str = "unix",
                 batch_messages: int = DEFAULT_BATCH_MESSAGES,
                 batch_bytes: int = DEFAULT_BATCH_BYTES,
                 batch_ms: float = DEFAULT_BATCH_MS,
                 credit_window: int = DEFAULT_CREDIT_WINDOW,
                 synchronized: bool = True,
                 stall_timeout: float = DEFAULT_STALL_TIMEOUT) -> None:
        super().__init__(endpoints, fault_plan)
        self.hub = SocketHub().start()
        peer_opts = dict(batch_messages=batch_messages,
                         batch_bytes=batch_bytes, batch_ms=batch_ms)
        self.fleet_peer, self.server_peer = self.hub.open_pair(
            family=family, name="fleet", **peer_opts)
        # Uplink: fleet side sends on channel 0, server side receives.
        up_gate = self.fleet_peer.open_sender(
            CHAN_UPLINK, credit_window, stall_timeout)
        up_queue = self.server_peer.open_receiver(CHAN_UPLINK)
        self.uplink = SocketChannel(
            "clients->server", CHAN_UPLINK, send_peer=self.fleet_peer,
            gate=up_gate, queue=up_queue, synchronized=synchronized,
            stall_timeout=stall_timeout)
        # Downlinks: server side sends on channel i+1, fleet side receives.
        self.downlinks = []
        for i in range(endpoints):
            chan = CHAN_DOWNLINK_BASE + i
            gate = self.server_peer.open_sender(
                chan, credit_window, stall_timeout)
            queue = self.fleet_peer.open_receiver(chan)
            self.downlinks.append(SocketChannel(
                f"server->client{i}", chan, send_peer=self.server_peer,
                gate=gate, queue=queue, synchronized=synchronized,
                stall_timeout=stall_timeout))

    def socket_stats(self) -> Dict:
        """Frame-level accounting for both directions of the pair."""
        up = self.fleet_peer.stats()
        down = self.server_peer.stats()
        total_frames = up["frames_sent"] + down["frames_sent"]
        data_frames = total_frames - up["credit_frames_sent"] \
            - down["credit_frames_sent"]
        total_msgs = up["messages_sent"] + down["messages_sent"]
        return {
            "uplink": up,
            "downlink": down,
            "frames_sent": total_frames,
            "messages_sent": total_msgs,
            "messages_per_frame": (total_msgs / data_frames
                                   if data_frames else 0.0),
        }

    def close(self) -> None:
        super().close()
        self.hub.close()
