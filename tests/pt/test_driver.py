"""PT kernel-driver facade tests."""

import pytest

from repro.lang import compile_source
from repro.pt import (
    PT_IOC_DISABLE,
    PT_IOC_ENABLE,
    PTConfig,
    PTDriver,
    PTDriverError,
)
from repro.runtime import Interpreter


@pytest.fixture
def module():
    return compile_source("""
        int main(int n) {
            int s = 0;
            int i;
            for (i = 0; i < n; i++) { s = s + i; }
            return s;
        }
    """)


class TestIoctl:
    def test_enable_disable_cycle(self, module):
        driver = PTDriver(module)
        driver.ioctl(PT_IOC_ENABLE, tid=0, uid=0)
        assert driver.encoder.is_enabled(0)
        driver.ioctl(PT_IOC_DISABLE, tid=0, uid=5)
        assert not driver.encoder.is_enabled(0)
        assert driver.ioctl_count == 2

    def test_unknown_command_rejected(self, module):
        driver = PTDriver(module)
        with pytest.raises(PTDriverError):
            driver.ioctl(0xDEAD, tid=0, uid=0)

    def test_enable_is_idempotent(self, module):
        driver = PTDriver(module)
        driver.ioctl(PT_IOC_ENABLE, tid=0, uid=0)
        driver.ioctl(PT_IOC_ENABLE, tid=0, uid=3)
        raw = driver.read_trace(0)
        # Only one PGE got emitted.
        from repro.pt import TIPPGE
        from repro.pt.decoder import _PacketCursor

        driver.ioctl(PT_IOC_DISABLE, tid=0, uid=4)
        cursor = _PacketCursor(driver.read_trace(0))
        pges = 0
        while (pkt := cursor.pop()) is not None:
            pges += isinstance(pkt, TIPPGE)
        assert pges == 1


class TestConfiguration:
    def test_reconfigure_while_tracing_rejected(self, module):
        driver = PTDriver(module)
        driver.ioctl(PT_IOC_ENABLE, tid=0, uid=0)
        with pytest.raises(PTDriverError):
            driver.configure(PTConfig(buffer_bytes=1024))

    def test_reconfigure_when_idle(self, module):
        driver = PTDriver(module)
        driver.configure(PTConfig(buffer_bytes=1024))
        assert driver.encoder.config.buffer_bytes == 1024


class TestEndToEnd:
    def test_decode_all_and_stats(self, module):
        driver = PTDriver(module, trace_on_start=True)
        interp = Interpreter(module, args=[10],
                             tracers=[driver.encoder])
        out = interp.run()
        traces = driver.decode_all()
        assert 0 in traces
        assert len(traces[0].executed_sequence()) == out.steps
        stats = driver.stats()
        assert stats["threads_traced"] == 1
        assert stats["bytes_written"] == driver.encoder.total_bytes() > 0
