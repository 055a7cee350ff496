"""Gist as separate OS processes: a serving server, connecting clients.

Everything else in this package simulates the fleet inside one process.
This module is the real thing: ``repro fleet serve`` hosts a
:class:`~repro.core.server.GistServer` behind a Unix-domain (or TCP)
socket, ``repro fleet client`` runs a group of
:class:`~repro.core.client.GistClient` endpoints in another process, and
all traffic between them — failure reports, patches, monitored runs, acks
— crosses the socket as the framed wire envelopes of
:mod:`repro.fleet.socket_transport`.  Each client endpoint installs and
acknowledges patches through a
:class:`~repro.fleet.endpoint.FleetEndpoint`, the same code (and the same
never-downgrade rule) the simulated fleet uses, and encodes its runs with
:func:`~repro.fleet.endpoint.encode_uplink`.  The server's front door
quarantines anything but uplink traffic before either loop below sees it.

Unlike the in-process transports there is no quiescence barrier and no
deterministic run ordering here: clients free-run, evidence arrives when
it arrives, and the server's epoch/digest gates do the filtering — so the
assertion worth making is *convergence* (the sketch contains the root
cause), not byte-identity.

With ``--journal-dir`` the server write-ahead journals every campaign
transition; kill it mid-campaign, start it again on the same journal, and
it resumes from the ingests already applied while the clients reconnect
and keep streaming.

Handshake (CONTROL frames, JSON):

- client → server ``{"op": "hello", "base": B, "count": N, "bug": ...}``
  registers N endpoints whose downlinks are channels ``B+1 .. B+N``;
- server → client ``{"op": "welcome"}`` (plus the current iteration's
  patches down each registered channel when one is in flight);
- server → client ``{"op": "done", "found": ..., "sketch": ...}`` ends
  the session; once the campaign has ended it is also the answer to any
  later hello, until the server exits.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import wire
from .endpoint import FleetEndpoint, encode_uplink
from .journal import journal_path
from .socket_transport import (
    CHAN_DOWNLINK_BASE,
    CHAN_UPLINK,
    DEFAULT_CREDIT_WINDOW,
    DEFAULT_STALL_TIMEOUT,
    SocketHub,
    SocketPeer,
    SocketProtocolError,
)
from .transport import TransportClosed

#: How often a client re-dials a server it cannot reach (a refused dial
#: on a local socket costs next to nothing).
REDIAL_SECONDS = 0.05


def parse_address(spec: str) -> Tuple:
    """``unix:/path``, ``tcp:host:port``, or a bare path (Unix socket)."""
    if spec.startswith("unix:"):
        return ("unix", spec[len("unix:"):])
    if spec.startswith("tcp:"):
        host, _, port = spec[len("tcp:"):].rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"bad tcp address {spec!r} "
                             "(expected tcp:HOST:PORT)")
        return ("tcp", host, int(port))
    return ("unix", spec)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


@dataclass
class _ClientGroup:
    """One connected client process: its peer and endpoint channels."""

    peer: SocketPeer
    base: int
    count: int
    up_queue: object = None
    #: Endpoint id -> downlink channel id.
    down_chans: Dict[int, int] = field(default_factory=dict)
    patched_epoch: int = -1


class FleetServer:
    """The serving side: accepts client groups, drives one campaign."""

    def __init__(self, bug_id: str, address: Tuple, *,
                 journal_dir: Optional[str] = None,
                 initial_sigma: int = 2,
                 max_iterations: int = 10,
                 max_runs_per_iteration: int = 400,
                 iteration_seconds: float = 30.0,
                 timeout: float = 300.0,
                 batch_messages: int = 256,
                 batch_bytes: int = 256 * 1024,
                 batch_ms: float = 0.0,
                 credit_window: int = DEFAULT_CREDIT_WINDOW,
                 log=print) -> None:
        from ..corpus import get_bug

        self.spec = get_bug(bug_id)
        self.bug_id = bug_id
        self.address = address
        self.journal_dir = journal_dir
        self.initial_sigma = initial_sigma
        self.max_iterations = max_iterations
        self.max_runs_per_iteration = max_runs_per_iteration
        self.iteration_seconds = iteration_seconds
        self.timeout = timeout
        self.credit_window = credit_window
        self.peer_opts = dict(batch_messages=batch_messages,
                              batch_bytes=batch_bytes, batch_ms=batch_ms,
                              on_control=self._on_control)
        self.log = log
        self._groups: List[_ClientGroup] = []
        self._groups_lock = threading.Lock()
        self.server = None
        self.campaign = None
        self._iter_open = False
        #: The ``done`` message, once the campaign has ended.
        self._done: Optional[Dict] = None

    # -- connection plumbing (hub loop thread) -------------------------------

    def _on_control(self, obj: Dict, peer: SocketPeer) -> None:
        if obj.get("op") != "hello":
            return
        base = obj.get("base")
        count = obj.get("count")
        if not all(type(v) is int and v >= 0 for v in (base, count)):
            raise SocketProtocolError(
                "hello needs non-negative integer base and count")
        group = _ClientGroup(peer=peer, base=base, count=count)
        # Runs on the reader task *before* any later frame from this peer
        # is processed, so the uplink receiver exists before uplink data.
        group.up_queue = peer.open_receiver(CHAN_UPLINK)
        for i in range(count):
            chan = CHAN_DOWNLINK_BASE + base + i
            peer.open_sender(chan, self.credit_window,
                             DEFAULT_STALL_TIMEOUT)
            group.down_chans[base + i] = chan
        with self._groups_lock:
            done = self._done
            if done is None:
                self._groups.append(group)
        self.log(f"[serve] hello from base {base}: {count} endpoints")
        if done is not None:
            # A hello after the verdict (a client that reconnected late)
            # gets the verdict, not a welcome into a finished campaign.
            peer.send_control(done)
            return
        # ``fresh`` tells a reconnecting client whether its installed
        # patches survive: a server that lost the campaign (no journal)
        # needs raw failure reports again, not monitored runs.
        peer.send_control({"op": "welcome", "bug": self.bug_id,
                           "fresh": self.campaign is None})

    def _live_groups(self) -> List[_ClientGroup]:
        with self._groups_lock:
            self._groups = [g for g in self._groups if not g.peer.eof]
            return list(self._groups)

    # -- campaign plumbing ---------------------------------------------------

    def _boot_server(self) -> None:
        """A fresh server — or, when the journal already has records, the
        journal replayed into one (the restart-after-kill path)."""
        from ..core.server import GistServer
        from .journal import CampaignJournal, JOURNAL_MAGIC, recover_server

        module = self.spec.module()
        path = (journal_path(self.journal_dir, self.bug_id)
                if self.journal_dir is not None else None)
        resumable = (path is not None and os.path.exists(path)
                     and os.path.getsize(path) > len(JOURNAL_MAGIC))
        if resumable:
            state = recover_server(path, module)
            self.server = state.server
            self.server.journal = CampaignJournal(path, fresh=False)
            if state.campaigns:
                self.campaign = state.campaigns.get(
                    None, next(iter(state.campaigns.values())))
                self._iter_open = state.open_iterations.get(
                    self.campaign.wire_key, False)
            self.log(f"[serve] resumed from journal: "
                     f"{state.records_replayed} records, "
                     f"{state.ingests_replayed} ingests, "
                     f"iteration {'open' if self._iter_open else 'closed'}")
            return
        self.server = GistServer(module)
        if path is not None:
            self.server.journal = CampaignJournal(path, fresh=True)

    def _send_patches(self, group: _ClientGroup, patches, epoch) -> None:
        for endpoint_id, chan in sorted(group.down_chans.items()):
            variant = patches[endpoint_id % len(patches)]
            try:
                group.peer.enqueue_data(
                    chan, wire.encode_patch(variant, epoch=epoch),
                    flush=True)
            except TransportClosed:
                return
        group.patched_epoch = epoch

    def _broadcast_patches(self, patches, epoch) -> None:
        for group in self._live_groups():
            if group.patched_epoch < epoch:
                self._send_patches(group, patches, epoch)

    def _broadcast_done(self, found: bool, sketch_text: str) -> None:
        done = {"op": "done", "found": found, "sketch": sketch_text}
        with self._groups_lock:
            self._done = done  # every later hello gets the verdict
        for group in self._live_groups():
            try:
                group.peer.send_control(done)
            except TransportClosed:
                pass

    def _pump(self, wait: float) -> List[wire.Message]:
        """Pop everything currently queued across client groups, blocking
        up to ``wait`` on the first empty poll."""
        messages: List[wire.Message] = []
        groups = self._live_groups()
        if not groups:
            time.sleep(wait)
            return messages
        for index, group in enumerate(groups):
            timeout = wait if index == 0 and not messages else None
            for blob in group.up_queue.pop_many(512, timeout=timeout):
                message = self.server.receive(blob)
                if message is not None:
                    messages.append(message)
        return messages

    @staticmethod
    def _remove_stale_unix_socket(path: str) -> None:
        """Unlink a leftover Unix socket only after a connect() probe
        confirms no server is behind it — unconditionally unlinking would
        orphan a live server's socket and split-brain its clients."""
        import socket as socket_mod

        if not os.path.exists(path):
            return
        probe = socket_mod.socket(socket_mod.AF_UNIX,
                                  socket_mod.SOCK_STREAM)
        try:
            probe.settimeout(1.0)
            probe.connect(path)
        except (ConnectionRefusedError, FileNotFoundError):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        except OSError as exc:
            raise TransportClosed(
                f"cannot probe socket path {path!r} ({exc}); "
                "refusing to unlink")
        else:
            raise TransportClosed(
                f"socket path {path!r} is in use by a live server")
        finally:
            probe.close()

    # -- the campaign loop ---------------------------------------------------

    def run(self) -> int:
        # Boot (and journal-replay) before listening: a client connecting
        # to a resuming server must be welcomed with ``fresh=False``, or
        # it discards its installed patches and regresses to unpatched
        # runs until the next patch broadcast.
        self._boot_server()
        hub = None
        bound = False
        try:
            hub = SocketHub(name="gist-serve-hub").start()
            if self.address[0] == "unix":
                self._remove_stale_unix_socket(self.address[1])
            hub.serve(self.address, on_peer=lambda peer: None,
                      **self.peer_opts)
            bound = True
            self.log(f"[serve] listening on {self.address} "
                     f"for bug {self.bug_id}")
            deadline = time.monotonic() + self.timeout
            return self._campaign_loop(deadline)
        finally:
            if self.server is not None and self.server.journal is not None:
                self.server.journal.close()
            if hub is not None:
                hub.close()
            # Only remove a socket this server actually bound — never a
            # live sibling's that the stale-probe refused to displace.
            if bound and self.address[0] == "unix":
                try:
                    os.unlink(self.address[1])
                except OSError:
                    pass

    def _campaign_loop(self, deadline: float) -> int:
        from ..core.cooperative import (MIN_FAILING_PER_ITERATION,
                                        MIN_SUCCESSFUL_PER_ITERATION)
        from ..core.render import render_sketch

        # Phase 1: bootstrap — wait for the first failure report (skipped
        # when the journal already replayed a campaign).
        while self.campaign is None:
            if time.monotonic() > deadline:
                self.log("[serve] timed out waiting for a failure report")
                return 1
            for message in self._pump(0.1):
                if message.type == wire.MSG_FAILURE_REPORT:
                    self.campaign = self.server.handle_failure_report(
                        self.bug_id, message.payload, self.initial_sigma)
                    self.log(f"[serve] campaign bootstrapped: "
                             f"{self.campaign.key}")
                    break

        # Phase 2: AsT iterations.
        campaign = self.campaign
        while True:
            if time.monotonic() > deadline:
                self.log("[serve] campaign timed out")
                return 1
            if not self._iter_open:
                if len(campaign.iterations) >= self.max_iterations or \
                        campaign.exhausted:
                    break
                campaign.begin_iteration()
                self._iter_open = True
            epoch = campaign.epoch
            patches = campaign.make_patches(
                max((g.base + g.count for g in self._live_groups()),
                    default=1))
            self._broadcast_patches(patches, epoch)
            failing = campaign._current.failing_runs_seen
            successful = campaign._current.successful_runs_seen
            ingested = campaign._evidence.runs
            iter_deadline = time.monotonic() + self.iteration_seconds
            while not (failing >= MIN_FAILING_PER_ITERATION
                       and successful >= MIN_SUCCESSFUL_PER_ITERATION) \
                    and ingested < self.max_runs_per_iteration \
                    and time.monotonic() < min(iter_deadline, deadline):
                # Late joiners get the in-flight iteration's patches.
                self._broadcast_patches(patches, epoch)
                for message in self._pump(0.1):
                    if message.type == wire.MSG_PATCH_ACK:
                        campaign.note_ack(
                            message.payload["endpoint_id"], message.epoch)
                    elif message.type == wire.MSG_MONITORED_RUN:
                        verdict = campaign.ingest_wire(message)
                        if verdict is None:
                            continue
                        ingested += 1
                        recurrence, run = verdict
                        if recurrence:
                            failing += 1
                        elif not run.failed:
                            successful += 1
                    elif message.type == wire.MSG_FAILURE_REPORT:
                        campaign.note_unmonitored_report(message.payload)
            result = campaign.finish_iteration()
            self._iter_open = False
            self.log(f"[serve] iteration {result.iteration} "
                     f"(sigma={result.sigma}): {failing} failing / "
                     f"{successful} successful, {ingested} ingested, "
                     f"sketch={'yes' if result.sketch else 'no'}")
            if result.sketch is not None and \
                    self.spec.sketch_has_root(result.sketch):
                break
            if campaign.exhausted:
                break
            campaign.grow()

        sketch = campaign.latest_sketch()
        found = sketch is not None and self.spec.sketch_has_root(sketch)
        text = render_sketch(sketch) if sketch is not None else ""
        self._broadcast_done(found, text)
        # Let the done frames drain before teardown; a client re-dialing
        # meanwhile is answered with the verdict.
        time.sleep(0.3)
        if sketch is not None:
            self.log(text)
        self.log(f"[serve] campaign {'converged' if found else 'ended'}: "
                 f"{self.server.ingests_applied} ingests applied, "
                 f"{len(campaign.iterations)} iterations")
        return 0 if found else 1


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class FleetClientProcess:
    """The connecting side: N endpoints free-running workloads."""

    def __init__(self, bug_id: str, address: Tuple, *,
                 endpoints: int = 2, base: int = 0,
                 timeout: float = 300.0,
                 reconnect_seconds: float = 30.0,
                 batch_messages: int = 256,
                 batch_bytes: int = 256 * 1024,
                 batch_ms: float = 0.0,
                 credit_window: int = DEFAULT_CREDIT_WINDOW,
                 log=print) -> None:
        from ..corpus import get_bug

        self.spec = get_bug(bug_id)
        self.bug_id = bug_id
        self.address = address
        self.endpoints = endpoints
        self.base = base
        self.timeout = timeout
        self.reconnect_seconds = reconnect_seconds
        self.credit_window = credit_window
        self.batch_opts = dict(batch_messages=batch_messages,
                               batch_bytes=batch_bytes, batch_ms=batch_ms)
        self.log = log
        self._control: "queue.Queue" = queue.Queue()
        self._peer: Optional[SocketPeer] = None
        self._gate = None
        self._down = {}
        self._server_fresh = False

    def _on_control(self, obj: Dict, peer: SocketPeer) -> None:
        self._control.put(obj)

    def _connect(self, hub: SocketHub, deadline: float) -> bool:
        """Dial (or re-dial) the server, with retries until ``deadline``."""
        while time.monotonic() < deadline:
            try:
                peer = hub.connect(self.address,
                                   on_control=self._on_control,
                                   name=f"client-base{self.base}",
                                   **self.batch_opts)
            except (OSError, ConnectionError, TimeoutError):
                time.sleep(REDIAL_SECONDS)
                continue
            self._peer = peer
            self._gate = peer.open_sender(CHAN_UPLINK, self.credit_window,
                                          DEFAULT_STALL_TIMEOUT)
            self._down = {
                i: peer.open_receiver(CHAN_DOWNLINK_BASE + self.base + i)
                for i in range(self.endpoints)}
            peer.send_control({"op": "hello", "base": self.base,
                               "count": self.endpoints,
                               "bug": self.bug_id})
            obj = self._await_reply(peer, time.monotonic() + 5.0)
            if obj is None:
                peer.close()
                continue
            if obj.get("op") == "welcome":
                self._server_fresh = bool(obj.get("fresh"))
                self.log(f"[client {self.base}] connected "
                         f"(fresh={self._server_fresh})")
                return True
            if obj.get("op") == "done":
                self._control.put(obj)
                return True
        return False

    def _await_reply(self, peer: SocketPeer,
                     deadline: float) -> Optional[Dict]:
        """The server's answer to our hello, or None once ``deadline``
        passes or the connection drops first.  A re-dial right after a
        server dies can land in the dead listener's backlog; that
        connection only ever ends in EOF, so waiting out the deadline on
        it would let a restarted server finish without us."""
        while True:
            # Read EOF before polling: the reader queues a reply before it
            # marks EOF, so a reply that preceded EOF is seen here.
            dropped = peer.eof
            try:
                return self._control.get(block=not dropped,
                                         timeout=REDIAL_SECONDS)
            except queue.Empty:
                if dropped or time.monotonic() >= deadline:
                    return None

    def _send_up(self, blob: bytes) -> None:
        self._gate.acquire(f"uplink-base{self.base}")
        self._peer.enqueue_data(CHAN_UPLINK, blob, flush=True)

    def run(self) -> int:
        from ..core.client import GistClient

        module = self.spec.module()
        fleet = [FleetEndpoint(GistClient(module, endpoint_id=self.base + i),
                               None, self.endpoints)
                 for i in range(self.endpoints)]
        hub = SocketHub(name=f"gist-client-hub-{self.base}").start()
        deadline = time.monotonic() + self.timeout
        run_seq = 0
        runs_done = 0
        try:
            self.log(f"[client {self.base}] dialing {self.address}")
            if not self._connect(hub, deadline):
                self.log(f"[client {self.base}] could not reach server")
                return 1
            while time.monotonic() < deadline:
                # Control first: a done message ends the session.
                try:
                    obj = self._control.get_nowait()
                except queue.Empty:
                    obj = None
                if obj is not None and obj.get("op") == "done":
                    self.log(f"[client {self.base}] server done "
                             f"(found={obj.get('found')}) after "
                             f"{runs_done} runs")
                    return 0 if obj.get("found") else 1
                if self._peer.eof:
                    # Server gone (killed?): reconnect and keep running.
                    # A protocol error is not a clean disconnect — say so.
                    cause = self._peer.protocol_error
                    self.log(f"[client {self.base}] connection lost"
                             + (f" (protocol error: {cause})" if cause
                                else "") + "; reconnecting")
                    if not self._connect(
                            hub, min(deadline, time.monotonic()
                                     + self.reconnect_seconds)):
                        self.log(f"[client {self.base}] reconnect failed")
                        return 1
                    if self._server_fresh:
                        # The campaign did not survive the restart: go
                        # back to unpatched runs so failure reports can
                        # bootstrap a new one.
                        for endpoint in fleet:
                            endpoint.patches.clear()
                    continue
                # Install any newly arrived patches; ack them.
                for i, down_queue in self._down.items():
                    for ack in fleet[i].poll_patches(
                            down_queue.pop_many(None)):
                        try:
                            self._send_up(ack)
                        except TransportClosed:
                            break
                # One run per endpoint, round-robin.
                i = run_seq % self.endpoints
                run_id = (self.base + i) * 10_000_000 + run_seq
                run_seq += 1
                workload = self.spec.workload_factory(run_id)
                patch, epoch, _ = fleet[i].patch_state(None)
                result = fleet[i].client.run(workload, patch=patch,
                                             run_id=run_id)
                runs_done += 1
                uplink = encode_uplink(result, epoch)
                if uplink is not None:
                    try:
                        self._send_up(uplink[1])
                    except TransportClosed:
                        continue  # EOF path above will reconnect
            self.log(f"[client {self.base}] timed out after "
                     f"{runs_done} runs")
            return 1
        finally:
            hub.close()


def serve_main(bug_id: str, address_spec: str, **kwargs) -> int:
    return FleetServer(bug_id, parse_address(address_spec), **kwargs).run()


def client_main(bug_id: str, address_spec: str, **kwargs) -> int:
    return FleetClientProcess(bug_id, parse_address(address_spec),
                              **kwargs).run()
