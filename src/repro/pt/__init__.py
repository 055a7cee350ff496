"""Intel Processor Trace simulator: packets, encoder, decoder, driver.

The reproduction's stand-in for the Broadwell hardware feature the paper
uses for low-overhead control-flow tracking (§3.2.2, §4).
"""

from .decoder import (
    DecodedTrace,
    DecodeError,
    PTDecoder,
    TraceWindow,
)
from .driver import PT_IOC_DISABLE, PT_IOC_ENABLE, PTDriver, PTDriverError
from .encoder import (
    DEFAULT_BUFFER_BYTES,
    PTBuffer,
    PTConfig,
    PTEncoder,
    SoftwarePTEncoder,
)
from .packets import (
    MAX_TNT_BITS,
    OVF,
    PSB,
    PTW,
    Packet,
    PacketError,
    TIP,
    TIPPGD,
    TIPPGE,
    TNT,
)

__all__ = [
    "DEFAULT_BUFFER_BYTES",
    "DecodeError",
    "DecodedTrace",
    "MAX_TNT_BITS",
    "OVF",
    "PSB",
    "PT_IOC_DISABLE",
    "PT_IOC_ENABLE",
    "PTBuffer",
    "PTConfig",
    "PTDecoder",
    "PTDriver",
    "PTDriverError",
    "PTEncoder",
    "PTW",
    "Packet",
    "PacketError",
    "SoftwarePTEncoder",
    "TIP",
    "TIPPGD",
    "TIPPGE",
    "TNT",
    "TraceWindow",
]
