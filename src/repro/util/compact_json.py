"""Compact JSON bytes for on-disk records, from one encoder built once.

``json.dumps(obj, separators=(",", ":"))`` constructs a fresh
:class:`json.JSONEncoder` on every call.  The WAL (every value, and
every key that is not a ``str``) and the SSTable writer encode on hot
paths (an SSTable encodes every key once more for its bloom filter), so
they share this module-level encoder with the journal's JSON records.  It
is built with exactly the arguments ``json.dumps`` passes, so the bytes
are identical.
"""

from __future__ import annotations

import json

_encode = json.JSONEncoder(separators=(",", ":")).encode


def compact_json(obj) -> bytes:
    """``json.dumps(obj, separators=(",", ":"))`` as UTF-8 bytes."""
    return _encode(obj).encode("utf-8")

