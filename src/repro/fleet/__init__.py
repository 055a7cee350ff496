"""The fleet transport subsystem: wire protocol, channels, fault injection.

The paper's cooperative deployment (§3.2.3, §5: 1,136 endpoints) assumes
reports, patches, and monitored runs move over a real network where
clients crash, messages are lost, and traces arrive corrupt.  This package
supplies that network for the simulated fleet:

- :mod:`repro.fleet.wire` — versioned JSON wire codecs with content
  digests for every message class;
- :mod:`repro.fleet.transport` — thread-safe byte channels and the
  :class:`FleetTransport` that all client↔server traffic flows through;
- :mod:`repro.fleet.faults` — a seeded, deterministic :class:`FaultPlan`
  injecting drops, duplicates, reorders, delays, truncation, corruption,
  client crashes, churn, and stragglers;
- :mod:`repro.fleet.endpoint` — the wire-speaking endpoint wrapper;
- :mod:`repro.fleet.executors` / :mod:`repro.fleet.procpool` — the
  pluggable execution engines (threads / warm process pool)
  the deployment schedules client runs through;
- :mod:`repro.fleet.socket_transport` — the same channel contract over a
  real Unix-domain/TCP socket with frame batching, pipelined delivery,
  and credit-based backpressure;
- :mod:`repro.fleet.journal` — the write-ahead campaign journal a crashed
  server replays to resume mid-campaign;
- :mod:`repro.fleet.serve` — the standalone server/client programs that
  run a diagnosis as genuinely separate OS processes.

With a fault-free plan the transport is an exact, byte-level loopback:
campaign statistics and sketches match the retired pre-transport
in-process path, recorded in ``tests/golden/campaigns.json`` (a test and
a benchmark pin every corpus bug to it).
"""

from .faults import (
    ClientFaults,
    FaultDecision,
    FaultPlan,
    MessageFaults,
    parse_fault_plan,
)
from .transport import (
    Channel,
    FleetReport,
    FleetTransport,
    TransportClosed,
    TransportStats,
)
from .endpoint import RUN_CHURNED, RUN_CRASHED, RUN_OK, FleetEndpoint, \
    RunPlan
from .journal import (
    CampaignJournal,
    JournalError,
    RecoveredState,
    iter_records,
    prefix_journal,
    recover_server,
)
from .serve import FleetClientProcess, FleetServer, parse_address
from .socket_transport import (
    SocketChannel,
    SocketFleetTransport,
    SocketHub,
    SocketPeer,
    SocketProtocolError,
)
from .executors import (
    EXECUTOR_KINDS,
    FleetExecutor,
    RunJob,
    ThreadExecutor,
    make_executor,
)
from .procpool import ProcessExecutor, module_payload
from .wire import (
    MSG_FAILURE_REPORT,
    MSG_MONITORED_RUN,
    MSG_PATCH,
    MSG_PATCH_ACK,
    WIRE_VERSION,
    Message,
    WireError,
    body_digest,
    decode_message,
    encode_failure_report,
    encode_message,
    encode_monitored_run,
    encode_patch,
    encode_patch_ack,
)

__all__ = [
    "CampaignJournal",
    "Channel",
    "ClientFaults",
    "EXECUTOR_KINDS",
    "FaultDecision",
    "FaultPlan",
    "FleetClientProcess",
    "FleetEndpoint",
    "FleetExecutor",
    "FleetReport",
    "FleetServer",
    "FleetTransport",
    "JournalError",
    "ProcessExecutor",
    "RecoveredState",
    "RunJob",
    "RunPlan",
    "SocketChannel",
    "SocketFleetTransport",
    "SocketHub",
    "SocketPeer",
    "SocketProtocolError",
    "ThreadExecutor",
    "Message",
    "MessageFaults",
    "MSG_FAILURE_REPORT",
    "MSG_MONITORED_RUN",
    "MSG_PATCH",
    "MSG_PATCH_ACK",
    "RUN_CHURNED",
    "RUN_CRASHED",
    "RUN_OK",
    "TransportClosed",
    "TransportStats",
    "WIRE_VERSION",
    "WireError",
    "body_digest",
    "decode_message",
    "encode_failure_report",
    "encode_message",
    "encode_monitored_run",
    "encode_patch",
    "encode_patch_ack",
    "iter_records",
    "make_executor",
    "module_payload",
    "parse_address",
    "parse_fault_plan",
    "prefix_journal",
    "recover_server",
]
