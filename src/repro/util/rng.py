"""Seeded random-number-generator helpers.

Every stochastic component in the package accepts either an integer seed or
an already-constructed :class:`numpy.random.Generator`; :func:`make_rng`
normalizes both (plus ``None``) into a ``Generator``.  Centralizing this
keeps experiments reproducible: a bench passes one integer seed down and
every workload generator derives from it deterministically.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def make_rng(seed: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a numpy ``Generator`` for ``seed``.

    ``seed`` may be an int (deterministic), an existing ``Generator``
    (returned unchanged, so call sites can share a stream), or ``None``
    (OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Used by parameter sweeps so each cell of the sweep gets its own stream
    and reordering cells does not change any cell's randomness.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def spawn_seed(*coords: int) -> int:
    """A stable seed for the sub-stream named by integer ``coords``.

    The same coordinates always give the same seed, so a component
    rebuilt in another process (or on a later run) draws the same
    stream.
    """
    return int(
        np.random.SeedSequence(entropy=tuple(int(c) for c in coords))
        .generate_state(1)[0]
    )
