"""Canonical digests for golden fixtures.

A fixture row stores a short SHA-256 of each recorded part instead of the
part itself.  :func:`canonical` maps a value onto JSON that depends only
on the value — never on ``repr()``, set iteration order or the hash seed:

- ``None``, bools, ints and strings stay as they are;
- an enum member becomes ``"Class.NAME"`` and bytes become hex;
- a dataclass or named tuple becomes ``[type name, field values...]``;
- a list or tuple becomes a list;
- a dict becomes its ``[key, value]`` pairs and a set its elements, both
  sorted by their canonical JSON.

Every other type is rejected, floats included.
"""

import dataclasses
import enum
import hashlib
import json

#: Hex characters kept per digest.
DIGEST_CHARS = 16


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"), ensure_ascii=True)


def canonical(value):
    """``value`` as canonical JSON-ready data (see the module docstring)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, int):
        return value
    if isinstance(value, bytes):
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)]
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return [type(value).__name__] + [canonical(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        return sorted(pairs, key=lambda pair: _dumps(pair[0]))
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=_dumps)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    """The first :data:`DIGEST_CHARS` hex characters of the SHA-256 of
    ``value``'s canonical JSON."""
    blob = _dumps(canonical(value)).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:DIGEST_CHARS]
