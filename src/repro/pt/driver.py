"""A kernel-driver-like control surface for the PT simulator.

The paper controls Intel PT through a custom Linux kernel module: MSR-based
configuration, CR3/privilege filtering, and an ioctl interface the
instrumented program uses to toggle tracing (§4).  This module mirrors that
shape so Gist's client-side instrumentation goes through the same kind of
narrow, device-like API it would in the real system:

- :meth:`PTDriver.configure` ≈ writing IA32_RTIT_* MSRs (only legal while
  tracing is globally off),
- :meth:`PTDriver.ioctl` with :data:`PT_IOC_ENABLE`/:data:`PT_IOC_DISABLE`
  ≈ the ioctl the instrumentation invokes,
- :meth:`PTDriver.read_trace` ≈ reading the trace buffer from the driver.

Every ioctl charges :data:`~repro.runtime.costmodel.IOCTL_TOGGLE_COST`
model cycles to the run, which is how toggle-heavy instrumentation shows up
in overhead measurements.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..lang.ir import Module
from ..runtime.costmodel import IOCTL_TOGGLE_COST
from .decoder import DecodedTrace, PTDecoder
from .encoder import PTConfig, PTEncoder

PT_IOC_ENABLE = 0x5401
PT_IOC_DISABLE = 0x5402


class PTDriverError(Exception):
    """Bad ioctl or illegal reconfiguration while tracing."""
    pass


class PTDriver:
    """Owns one :class:`PTEncoder` and mediates all control of it."""

    def __init__(self, module: Module,
                 config: Optional[PTConfig] = None,
                 trace_on_start: bool = False) -> None:
        self.module = module
        self.encoder = PTEncoder(config or PTConfig(),
                                 trace_on_start=trace_on_start)
        self.decoder = PTDecoder(module)
        self.ioctl_count = 0
        self._configured = True

    # -- configuration (MSR analogue) -----------------------------------------

    def configure(self, config: PTConfig) -> None:
        if self.encoder.tracing:
            raise PTDriverError("cannot reconfigure while tracing is on")
        self.encoder.config = config

    # -- ioctl interface ----------------------------------------------------------

    def ioctl(self, cmd: int, tid: int, uid: int) -> None:
        """The call instrumented programs make to toggle tracing."""
        self.ioctl_count += 1
        if cmd == PT_IOC_ENABLE:
            self.encoder.enable(tid, uid)
        elif cmd == PT_IOC_DISABLE:
            self.encoder.disable(tid, uid)
        else:
            raise PTDriverError(f"unknown ioctl {cmd:#x}")

    @property
    def toggle_cost(self) -> int:
        """Per-ioctl cost, exposed for hook construction."""
        return IOCTL_TOGGLE_COST

    # -- results --------------------------------------------------------------------

    def read_trace(self, tid: int) -> bytes:
        return self.encoder.raw_trace(tid)

    def decode_trace(self, tid: int) -> DecodedTrace:
        return self.decoder.decode(self.read_trace(tid))

    def decode_all(self) -> Dict[int, DecodedTrace]:
        return {tid: self.decode_trace(tid)
                for tid in sorted(self.encoder.buffers)}

    def stats(self) -> Dict[str, int]:
        return {
            "threads_traced": len(self.encoder.buffers),
            "bytes_written": self.encoder.total_bytes(),
            "ioctls": self.ioctl_count,
        }
