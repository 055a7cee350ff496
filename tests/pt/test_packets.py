"""PT packet encode/decode tests, including property-based roundtrips.

Streams are parsed by the decoder's packet cursor, the one implementation
of the packet grammar.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pt import DecodeError
from repro.pt import packets as P
from repro.pt.decoder import _PacketCursor


def _parse(raw):
    """Every packet in ``raw``, in order."""
    cursor = _PacketCursor(raw)
    packets = []
    while True:
        pkt = cursor.pop()
        if pkt is None:
            return packets
        packets.append(pkt)


class TestTNT:
    def test_single_bit(self):
        (pkt,) = _parse(P.encode_tnt([True]))
        assert isinstance(pkt, P.TNT)
        assert pkt.bits == (True,)

    def test_six_bits(self):
        bits = [True, False, True, True, False, False]
        (pkt,) = _parse(P.encode_tnt(bits))
        assert pkt.bits == tuple(bits)

    def test_too_many_bits_rejected(self):
        with pytest.raises(P.PacketError):
            P.encode_tnt([True] * 7)

    def test_empty_rejected(self):
        with pytest.raises(P.PacketError):
            P.encode_tnt([])

    def test_tnt_is_one_byte(self):
        assert len(P.encode_tnt([True] * 6)) == 1

    @given(st.lists(st.booleans(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, bits):
        (pkt,) = _parse(P.encode_tnt(bits))
        assert pkt.bits == tuple(bits)


class TestULEB128:
    @given(st.integers(-1, 2**40))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, value):
        encoded = P.encode_uleb128(value)
        decoded, pos = P.decode_uleb128(encoded, 0)
        assert decoded == value
        assert pos == len(encoded)

    def test_small_values_compact(self):
        assert len(P.encode_uleb128(0)) == 1
        assert len(P.encode_uleb128(126)) == 1
        assert len(P.encode_uleb128(128)) == 2

    def test_truncated_raises(self):
        encoded = P.encode_uleb128(1 << 20)
        with pytest.raises(P.PacketError):
            P.decode_uleb128(encoded[:-1], 0)


class TestTIPFamily:
    @pytest.mark.parametrize("encode,cls", [
        (P.encode_tip, P.TIP),
        (P.encode_tip_pge, P.TIPPGE),
        (P.encode_tip_pgd, P.TIPPGD),
    ])
    def test_roundtrip(self, encode, cls):
        for uid in (0, 1, 127, 128, 100_000, -1):
            (pkt,) = _parse(encode(uid))
            assert isinstance(pkt, cls)
            assert pkt.uid == uid


class TestStream:
    def test_psb_ovf_pad(self):
        raw = P.encode_pad() + P.encode_psb() + P.encode_ovf() + \
            P.encode_pad()
        pkts = _parse(raw)
        assert isinstance(pkts[0], P.PSB)
        assert isinstance(pkts[1], P.OVF)

    def test_mixed_stream_order_preserved(self):
        raw = (P.encode_psb() + P.encode_tip_pge(10)
               + P.encode_tnt([True, False]) + P.encode_tip(55)
               + P.encode_tip_pgd(60))
        pkts = _parse(raw)
        kinds = [type(p).__name__ for p in pkts]
        assert kinds == ["PSB", "TIPPGE", "TNT", "TIP", "TIPPGD"]
        assert pkts[1].uid == 10
        assert pkts[3].uid == 55
        assert pkts[4].uid == 60

    def test_garbage_header_raises(self):
        with pytest.raises(DecodeError) as err:
            _parse(bytes([0x03]))  # odd, not a known header
        assert err.value.offset == 0

    @given(st.lists(st.one_of(
        st.tuples(st.just("tnt"),
                  st.lists(st.booleans(), min_size=1, max_size=6)),
        st.tuples(st.just("tip"), st.integers(0, 1 << 20)),
        st.tuples(st.just("pge"), st.integers(0, 1 << 20)),
        st.tuples(st.just("pgd"), st.integers(-1, 1 << 20)),
        st.tuples(st.just("psb"), st.none()),
    ), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_stream_roundtrip(self, items):
        raw = bytearray()
        for kind, arg in items:
            if kind == "tnt":
                raw += P.encode_tnt(arg)
            elif kind == "tip":
                raw += P.encode_tip(arg)
            elif kind == "pge":
                raw += P.encode_tip_pge(arg)
            elif kind == "pgd":
                raw += P.encode_tip_pgd(arg)
            else:
                raw += P.encode_psb()
        pkts = _parse(bytes(raw))
        assert len(pkts) == len(items)
        for (kind, arg), pkt in zip(items, pkts):
            if kind == "tnt":
                assert isinstance(pkt, P.TNT) and pkt.bits == tuple(arg)
            elif kind == "tip":
                assert isinstance(pkt, P.TIP) and pkt.uid == arg
            elif kind == "pge":
                assert isinstance(pkt, P.TIPPGE) and pkt.uid == arg
            elif kind == "pgd":
                assert isinstance(pkt, P.TIPPGD) and pkt.uid == arg
            else:
                assert isinstance(pkt, P.PSB)
