"""Intel Processor Trace packet formats (simulated, bit-level).

We reproduce the packet *economy* of real Intel PT — the property the paper
leans on ("a highly-compressed trace, ~0.5 bits per retired assembly
instruction"):

- **TNT** (taken/not-taken): up to 6 conditional-branch outcomes packed in a
  single byte.  Bit 0 is 0 (the TNT discriminator); the outcomes occupy bits
  1..n, and a stop bit is set at position n+1, exactly as in the short-TNT
  format of the real encoding.
- **TIP** (target IP): emitted for transfers whose target the decoder cannot
  infer statically (returns, trace-window starts).  Real TIP packets carry a
  compressed x86 linear address; ours carry a ULEB128-encoded instruction
  uid, the program-counter namespace of the simulated machine.
- **TIP.PGE / TIP.PGD**: packet-generation enable/disable markers wrapping
  each traced window, carrying the uid where tracing began / ended.
- **PSB**: stream synchronization boundary.
- **OVF**: the buffer overflowed and packets were dropped.
- **PAD**: padding.
- **PTW**: the §6 "future hardware" extension — a PTWRITE-style packet
  carrying a memory access's pc, address, value, direction, and a TSC-like
  global timestamp.  The paper: "if Intel Processor Trace also captured a
  trace of the data addresses and values along with the control-flow, we
  could eliminate the need for hardware watchpoints and the complexity of
  a cooperative approach."  (Intel later did ship PTWRITE.)

All encoders return ``bytes``.  The decoder's packet cursor
(:class:`repro.pt.decoder._PacketCursor`) is the one parser: it reads a
``bytes`` buffer into these typed packet objects with the field decoders
below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

# Single-byte headers (values chosen to echo the real encoding).
_PAD = 0x00
_PSB0, _PSB1 = 0x02, 0x82
_OVF0, _OVF1 = 0x02, 0xF3
_TIP = 0x0D
_TIP_PGE = 0x11
_TIP_PGD = 0x01
_PTW = 0x19

MAX_TNT_BITS = 6


class PacketError(Exception):
    """Malformed packet stream."""


@dataclass(frozen=True)
class TNT:
    """Up to six conditional-branch outcomes, oldest first."""

    bits: Tuple[bool, ...]


@dataclass(frozen=True)
class TIP:
    """Indirect-transfer target (a return's destination uid)."""

    uid: int


@dataclass(frozen=True)
class TIPPGE:
    """Trace window opened at ``uid``."""

    uid: int


@dataclass(frozen=True)
class TIPPGD:
    """Trace window closed at ``uid`` (-1 if unknown/end of program)."""

    uid: int


@dataclass(frozen=True)
class PTW:
    """A PTWRITE-style data packet (§6 future-hardware mode)."""

    uid: int            # pc of the access
    address: int
    value: int          # zigzag-encoded on the wire (values may be negative)
    is_write: bool
    tsc: int            # global timestamp (total order across cores)


@dataclass(frozen=True)
class PSB:
    """Stream synchronization boundary."""
    pass


@dataclass(frozen=True)
class OVF:
    """Marks dropped packets after a buffer overflow."""
    pass


Packet = Union[TNT, TIP, TIPPGE, TIPPGD, PTW, PSB, OVF]


# -- ULEB128 ---------------------------------------------------------------


def encode_uleb128(value: int) -> bytes:
    """Unsigned LEB128.  uids are non-negative; -1 is mapped to 0 and
    reconstructed by the decoder from context (end-of-program PGD)."""
    value = max(value + 1, 0)  # shift so -1 encodes as 0
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uleb128(buf: bytes, pos: int) -> Tuple[int, int]:
    """Returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise PacketError("truncated ULEB128")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result - 1, pos  # undo the -1 shift
        shift += 7
        if shift > 63:
            raise PacketError("ULEB128 too long")


def encode_zigzag(value: int) -> bytes:
    """Signed value → ULEB128 via zigzag mapping (0,-1,1,-2,... → 0,1,2,3)."""
    mapped = ((-value) << 1) - 1 if value < 0 else value << 1
    return encode_uleb128(mapped)


def decode_zigzag(buf: bytes, pos: int) -> Tuple[int, int]:
    """Returns (signed value, new position)."""
    mapped, pos = decode_uleb128(buf, pos)
    if mapped & 1:
        return -((mapped + 1) >> 1), pos
    return mapped >> 1, pos


# -- encoding ------------------------------------------------------------------


def encode_tnt(bits: List[bool]) -> bytes:
    """Short-TNT: bit0=0, outcomes at bits 1..n, stop bit at n+1."""
    if not 1 <= len(bits) <= MAX_TNT_BITS:
        raise PacketError(f"TNT packs 1..{MAX_TNT_BITS} bits, "
                          f"got {len(bits)}")
    value = 1 << (len(bits) + 1)  # stop bit
    for i, bit in enumerate(bits):
        if bit:
            value |= 1 << (i + 1)
    return bytes([value])


def encode_tip(uid: int) -> bytes:
    """TIP: an indirect transfer target (return destination)."""
    return bytes([_TIP]) + encode_uleb128(uid)


def encode_tip_pge(uid: int) -> bytes:
    """TIP.PGE: tracing enabled at ``uid``."""
    return bytes([_TIP_PGE]) + encode_uleb128(uid)


def encode_tip_pgd(uid: int) -> bytes:
    """TIP.PGD: tracing disabled at ``uid`` (-1 = end of program)."""
    return bytes([_TIP_PGD]) + encode_uleb128(uid)


def encode_ptw(uid: int, address: int, value: int, is_write: bool,
               tsc: int) -> bytes:
    """PTW: a PTWRITE-style data packet (§6 future-hardware mode)."""
    return (bytes([_PTW, 1 if is_write else 0])
            + encode_uleb128(uid) + encode_uleb128(address)
            + encode_zigzag(value) + encode_uleb128(tsc))


def encode_psb() -> bytes:
    """PSB: stream synchronization boundary."""
    return bytes([_PSB0, _PSB1])


def encode_ovf() -> bytes:
    """OVF: buffer overflow marker."""
    return bytes([_OVF0, _OVF1])


def encode_pad() -> bytes:
    """PAD: a single padding byte."""
    return bytes([_PAD])


# -- decoding --------------------------------------------------------------------


def _decode_tnt_byte(byte: int) -> TNT:
    # Find the stop bit (highest set bit); outcomes are below it.
    if byte == 0 or byte & 1:
        raise PacketError(f"not a TNT byte: {byte:#x}")
    stop = byte.bit_length() - 1
    nbits = stop - 1
    if not 1 <= nbits <= MAX_TNT_BITS:
        raise PacketError(f"TNT bit count out of range: {nbits}")
    bits = tuple(bool(byte & (1 << (i + 1))) for i in range(nbits))
    return TNT(bits)
