"""Byte-fuzzing the decoders of untrusted input.

Each decoder gets real corpus inputs mutated by bit flips, truncations and
splices, and must either decode or fail with its own typed error — never
an uncaught ``IndexError``, ``ValueError`` or the like, and never a hang:

- ``PTDecoder.decode`` on full-trace PT buffers of corpus runs raises only
  :class:`~repro.pt.decoder.DecodeError`;
- ``compile_source`` on corpus MiniC raises only the front end's and
  verifier's errors;
- ``parse_gir`` on ``Module.format()`` text raises only
  :class:`~repro.lang.GirParseError` or :class:`~repro.lang.VerifyError`.

Example counts are bounded and every example has a deadline, so the suite
stays a few seconds long; an escape it finds becomes a typed error in the
decoder plus a regression test next to that decoder's other tests.
"""

from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import get_bug
from repro.lang import (
    GirParseError,
    LexError,
    ParseError,
    TypeError_,
    VerifyError,
    compile_source,
    parse_gir,
)
from repro.lang.codegen import CodegenError
from repro.pt.decoder import DecodeError, PTDecoder
from repro.pt.encoder import PTEncoder
from repro.runtime.interpreter import Interpreter

#: Small corpus programs: one sequential, three multi-threaded.
BUGS = ("cppcheck-2782", "curl-965", "pbzip2-1", "ringbuf-1")

#: Every fuzz test's settings: a deadline per example well above one
#: decode here, and no health check for the slower text decoders.
FUZZ = settings(deadline=timedelta(seconds=2),
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutated(draw, inputs, donors=None):
    """One of ``inputs`` after one to four flips, truncations or splices
    (a slice of any input, or of any of ``donors``, inserted anywhere)."""
    data = bytearray(draw(st.sampled_from(inputs)))
    donors = donors or inputs
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("flip", "truncate", "splice")))
        if op == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif op == "splice":
            other = draw(st.sampled_from(donors))
            start = draw(st.integers(0, len(other)))
            end = draw(st.integers(start, min(len(other), start + 64)))
            at = draw(st.integers(0, len(data)))
            data[at:at] = other[start:end]
    return bytes(data)


@pytest.fixture(scope="module")
def pt_inputs():
    """(module, PT buffer) per traced thread of each bug's first
    workload."""
    out = []
    for bug_id in BUGS:
        spec = get_bug(bug_id)
        module = spec.module()
        workload = spec.workload_factory(0)
        pt = PTEncoder(trace_on_start=True)
        Interpreter(module, entry=workload.entry, args=list(workload.args),
                    scheduler=workload.make_scheduler(), tracers=[pt],
                    max_steps=workload.max_steps).run()
        out.extend((module, pt.raw_trace(tid)) for tid in sorted(pt.buffers))
    return out


def _sources():
    return [get_bug(bug_id).source.encode() for bug_id in BUGS]


def _gir_texts():
    return [get_bug(bug_id).module().format().encode() for bug_id in BUGS]


def test_unmutated_inputs_decode(pt_inputs):
    """The seeds themselves are well formed, so the fuzzers start from
    inputs each decoder accepts."""
    for module, raw in pt_inputs:
        assert PTDecoder(module).decode(raw).windows
    for source in _sources():
        compile_source(source.decode())
    for text in _gir_texts():
        assert parse_gir(text.decode()).format() == text.decode()


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_pt_decoder_raises_only_decode_errors(pt_inputs, data):
    module, raw = data.draw(st.sampled_from(pt_inputs))
    raw = data.draw(mutated([raw], [other for _, other in pt_inputs]))
    try:
        PTDecoder(module).decode(raw)
    except DecodeError:
        pass


@settings(FUZZ, max_examples=100)
@given(source=mutated(_sources()))
def test_minic_front_end_raises_only_typed_errors(source):
    try:
        compile_source(source.decode("latin-1"))
    except (LexError, ParseError, TypeError_, CodegenError, VerifyError):
        pass


@settings(FUZZ, max_examples=100)
@given(text=mutated(_gir_texts()))
def test_gir_parser_raises_only_typed_errors(text):
    try:
        parse_gir(text.decode("latin-1"))
    except (GirParseError, VerifyError):
        pass
