"""Record payloads of the ``WOJ3`` journal and WAL format.

Every record is framed ``u32 length | u32 CRC-32 | payload`` (see
:mod:`repro.dam.journal`); this module owns the payload.  Its first byte
is the record's *kind*; the rest is the body, little-endian:

====  ==============================  ==================================
kind  record                          body
====  ==============================  ==================================
``{``  any record, as a JSON object   the rest of its compact JSON
0x02  ``checkpoint`` (batch)          ``i32 t, n``, then ``n``
                                      locations and ``n`` completions,
                                      then the shard digests
0x03  ``checkpoint`` (serve)          ``i32 t, arrived, completed``,
                                      then the shard digests
0x05  ``put`` of a ``str`` key        ``i64 seq, u32`` key length, the
                                      key in UTF-8, the value as JSON
0x06  ``put`` of any other key        the same, the key as JSON
0x07  ``del`` of a ``str`` key        ``i64 seq``, the key in UTF-8
0x08  ``del`` of any other key        ``i64 seq``, the key as JSON
====  ==============================  ==================================

The *shard digests* close both checkpoint bodies: ``i32 k``, then per
shard an ``i32`` flush count and the 8-byte digest of its realized
:class:`~repro.dam.schedule.FlushLog` through the checkpoint's step
(:class:`~repro.dam.schedule.LogDigest`); a batch run is one shard.
They read back as the lists ``"flushes"`` and ``"digests"`` (hex).
The JSON form holds the run's ``meta`` and the rare kinds (``end``,
``driver``); any record may be written in it (test fixtures do).

:func:`decode` turns a payload back into the record dict, key for key
what the JSON form of the same record reads as.  It raises
:class:`ValueError` for any payload that does not parse (the scanner's
``bad-payload``).
"""

from __future__ import annotations

import json
import struct

from repro.util.compact_json import compact_json

#: Record types.
REC_META = "meta"
REC_CHECKPOINT = "checkpoint"
REC_END = "end"
#: WAL operations (a WAL generation is a journal).
REC_PUT = "put"
REC_DEL = "del"

#: Kind bytes.
K_JSON = ord("{")
K_BATCH_CHECKPOINT = 0x02
K_SERVE_CHECKPOINT = 0x03
K_PUT_STR = 0x05
K_PUT_JSON = 0x06
K_DEL_STR = 0x07
K_DEL_JSON = 0x08

_CHECKPOINT_HEAD = struct.Struct("<B2i")  # kind, t, n
_SERVE_CHECKPOINT = struct.Struct("<B3i")  # kind, t, arrived, done
_SHARDS = struct.Struct("<i")  # shard digests that follow
_SHARD = struct.Struct("<i8s")  # flushes, digest
_PUT_HEAD = struct.Struct("<BqI")  # kind, seq, key length
_DEL_HEAD = struct.Struct("<Bq")  # kind, seq


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def _pack_digests(digests) -> bytes:
    """The shard digests: ``digests`` is one ``(flushes, digest)`` pair
    per shard."""
    out = [_SHARDS.pack(len(digests))]
    for flushes, digest in digests:
        if len(digest) != 8:
            raise ValueError(f"a shard digest is 8 bytes, got {len(digest)}")
        out.append(_SHARD.pack(flushes, digest))
    return b"".join(out)


def pack_batch_checkpoint(t: int, locations, completions,
                          digests) -> bytes:
    """A batch run's state snapshot at the end of step ``t``, with its
    one ``(flushes, digest)`` pair."""
    n = len(locations)
    if len(completions) != n:
        raise ValueError(
            f"checkpoint has {n} locations but {len(completions)} "
            "completions"
        )
    return (_CHECKPOINT_HEAD.pack(K_BATCH_CHECKPOINT, t, n)
            + struct.pack(f"<{2 * n}i", *locations, *completions)
            + _pack_digests(digests))


def pack_serve_checkpoint(t: int, arrived: int, completed: int,
                          digests) -> bytes:
    """A serving run's durability mark at the end of step ``t``, with
    one ``(flushes, digest)`` pair per shard."""
    return (_SERVE_CHECKPOINT.pack(K_SERVE_CHECKPOINT, t, arrived,
                                   completed)
            + _pack_digests(digests))


def pack_put(seq: int, key, value) -> bytes:
    """One WAL put."""
    if type(key) is str:
        kind, raw = K_PUT_STR, _utf8(key)
    else:
        kind, raw = K_PUT_JSON, compact_json(key)
    return _PUT_HEAD.pack(kind, seq, len(raw)) + raw + compact_json(value)


def pack_delete(seq: int, key) -> bytes:
    """One WAL tombstone delete."""
    if type(key) is str:
        return _DEL_HEAD.pack(K_DEL_STR, seq) + _utf8(key)
    return _DEL_HEAD.pack(K_DEL_JSON, seq) + compact_json(key)


def _bad(what: str) -> ValueError:
    return ValueError(f"malformed {what} payload")


def _decode_digests(payload: bytes, offset: int, record: dict) -> dict:
    """Add the shard digests at ``offset`` (the rest of the payload) to
    ``record``."""
    if len(payload) < offset + _SHARDS.size:
        raise _bad("checkpoint")
    (k,) = _SHARDS.unpack_from(payload, offset)
    offset += _SHARDS.size
    if k < 0 or len(payload) != offset + k * _SHARD.size:
        raise _bad("checkpoint")
    pairs = [_SHARD.unpack_from(payload, offset + i * _SHARD.size)
             for i in range(k)]
    record["flushes"] = [flushes for flushes, _digest in pairs]
    record["digests"] = [digest.hex() for _flushes, digest in pairs]
    return record


def _decode_batch_checkpoint(payload: bytes) -> dict:
    head = _CHECKPOINT_HEAD.size
    if len(payload) < head:
        raise _bad("checkpoint")
    _k, t, n = _CHECKPOINT_HEAD.unpack_from(payload)
    if n < 0 or len(payload) < head + 8 * n:
        raise _bad("checkpoint")
    values = list(struct.unpack_from(f"<{2 * n}i", payload, head))
    return _decode_digests(payload, head + 8 * n, {
        "type": REC_CHECKPOINT, "t": t, "locations": values[:n],
        "completions": values[n:],
    })


def _decode_serve_checkpoint(payload: bytes) -> dict:
    if len(payload) < _SERVE_CHECKPOINT.size:
        raise _bad("checkpoint")
    _k, t, arrived, completed = _SERVE_CHECKPOINT.unpack_from(payload)
    return _decode_digests(payload, _SERVE_CHECKPOINT.size, {
        "type": REC_CHECKPOINT, "t": t, "arrived": arrived,
        "completed": completed,
    })


def _decode_key(raw: bytes, as_str: bool):
    return raw.decode("utf-8", "surrogatepass") if as_str else json.loads(raw)


def _decode_put(payload: bytes) -> dict:
    head = _PUT_HEAD.size
    if len(payload) < head:
        raise _bad("put")
    kind, seq, n = _PUT_HEAD.unpack_from(payload)
    if len(payload) < head + n:
        raise _bad("put")
    return {"type": REC_PUT, "seq": seq,
            "key": _decode_key(payload[head:head + n], kind == K_PUT_STR),
            "value": json.loads(payload[head + n:])}


def _decode_delete(payload: bytes) -> dict:
    if len(payload) < _DEL_HEAD.size:
        raise _bad("del")
    kind, seq = _DEL_HEAD.unpack_from(payload)
    return {"type": REC_DEL, "seq": seq,
            "key": _decode_key(payload[_DEL_HEAD.size:], kind == K_DEL_STR)}


def _decode_json(payload: bytes) -> dict:
    record = json.loads(payload)
    if not isinstance(record, dict) or "type" not in record:
        raise _bad("JSON")
    return record


_DECODERS = {
    K_JSON: _decode_json,
    K_BATCH_CHECKPOINT: _decode_batch_checkpoint,
    K_SERVE_CHECKPOINT: _decode_serve_checkpoint,
    K_PUT_STR: _decode_put,
    K_PUT_JSON: _decode_put,
    K_DEL_STR: _decode_delete,
    K_DEL_JSON: _decode_delete,
}


def decode(payload: bytes) -> dict:
    """The record a payload holds; :class:`ValueError` if it does not
    parse (an empty payload, an unknown kind byte, a body whose length
    disagrees with its counts, bad UTF-8 or JSON)."""
    if not payload:
        raise _bad("empty")
    decoder = _DECODERS.get(payload[0])
    if decoder is None:
        raise ValueError(f"unknown record kind byte {payload[0]:#04x}")
    return decoder(payload)
