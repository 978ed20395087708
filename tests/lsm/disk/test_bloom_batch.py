"""The one-pass bloom build sets exactly the bits of per-key ``add``.

``write_sstable`` builds each file's filter with
:meth:`BloomFilter.add_all`; probes use the scalar ``_positions``.  The
two must agree bit for bit, or a probe could miss a key its own file
holds.  Keys span every type the store hashes (str with escapes, int,
tuple), filter sizes include ``m % 8 != 0`` (a partial last byte), and
the key lists include the empty and single-key cases.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lsm.disk.sstable import BloomFilter

KEYS = st.one_of(
    st.lists(st.text(max_size=12), unique=True, max_size=80),
    st.lists(st.integers(-2**40, 2**40), unique=True, max_size=80),
    st.lists(st.tuples(st.text(max_size=6), st.integers(0, 99)),
             unique=True, max_size=80),
)


def _scalar(m: int, k: int, keys) -> BloomFilter:
    bloom = BloomFilter(m, k)
    for key in keys:
        bloom.add(key)
    return bloom


@settings(max_examples=200, deadline=None)
@given(keys=KEYS, m=st.integers(8, 3000), k=st.integers(1, 16))
@example(keys=[], m=70, k=7)
@example(keys=["solo"], m=9, k=16)
@example(keys=[("a", 1), ("b\\", 2), ('q"', 3)], m=8, k=1)
def test_batch_bits_equal_scalar_bits(keys, m, k) -> None:
    batch = BloomFilter(m, k)
    batch.add_all(keys)
    assert batch.bits == _scalar(m, k, keys).bits
    assert all(key in batch for key in keys)
    # Padding bits past m in the last byte are never set.
    if m % 8:
        assert batch.bits[-1] >> (m % 8) == 0


@settings(max_examples=60, deadline=None)
@given(keys=KEYS)
def test_batch_sized_filter_matches_scalar(keys) -> None:
    """The sizing ``write_sstable`` uses (``m = 10n``: not a multiple
    of 8 for odd ``n``)."""
    batch = BloomFilter.for_entries(len(keys))
    batch.add_all(keys)
    assert batch.bits == _scalar(batch.m, batch.k, keys).bits


def test_batch_adds_to_existing_bits() -> None:
    bloom = BloomFilter(101, 5)
    bloom.add("first")
    bloom.add_all(["second", "third"])
    assert bloom.bits == _scalar(101, 5, ["first", "second", "third"]).bits
