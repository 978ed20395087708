"""The key stream every serving golden depends on.

``KeySampler`` inverts a Zipf CDF it builds once, where it used to call
``Generator.choice(keys, size=n, p=probs)`` on every draw.  Both read the
same uniforms through the same CDF, so the keys are the same; these tests
pin that, call by call, against the installed numpy, and pin the first
10,000 arrival keys of a seed-1 run by digest, so neither a sampler
change nor a numpy upgrade can move the arrival stream silently.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.serve import ServeConfig, ServiceLoop
from repro.serve.arrivals import KeySampler
from repro.util.rng import make_rng


def _choice_stream(key_space: int, theta: float, seed: int):
    """The pre-CDF sampler: ``choice(p=)`` on every draw."""
    rng = make_rng(seed)
    probs = np.arange(1, key_space + 1, dtype=np.float64) ** -theta
    probs /= probs.sum()
    keys = rng.permutation(key_space)

    def draw(n: int) -> "list[int]":
        if n <= 0:
            return []
        return [int(k) for k in rng.choice(keys, size=n, p=probs)]

    return draw


@pytest.mark.parametrize("theta", [0.5, 0.99, 1.2])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_draw_equals_generator_choice(theta, seed):
    for key_space in (256, 1000):
        sampler = KeySampler(key_space, theta=theta, seed=seed)
        reference = _choice_stream(key_space, theta, seed)
        for n in range(65):  # one stream: every call, in sequence
            assert sampler.draw(n) == reference(n), (key_space, n)


def _arrival_keys(theta: float, n: int = 10_000) -> "list[int]":
    """The first ``n`` keys a seed-1 serving run's arrivals emit
    (``serve_steady``'s Poisson config, or the bursty Zipf one)."""
    if theta:
        cfg = ServeConfig(arrivals="mmpp", rate=4.0, burst_rate=32.0,
                          messages=n, theta=theta, seed=1)
    else:
        cfg = ServeConfig(arrivals="poisson", rate=8.0, messages=n,
                          theta=0.0, seed=1)
    arrivals = ServiceLoop(cfg).arrivals
    keys: "list[int]" = []
    t = 0
    while not arrivals.exhausted:
        t += 1
        keys += arrivals.take(t)
    assert len(keys) == n
    return keys


@pytest.mark.parametrize("theta,digest", [
    (0.0,
     "fbb2f68607084591290f9ac3d062e528c1a8db369e8f51ae64b834e98ab4317c"),
    (0.99,
     "ea941b57c206c7562a486b29c1e97536bf4fd00d9e3dd2dabab6290b69700e28"),
])
def test_first_arrival_keys_are_pinned(theta, digest):
    keys = _arrival_keys(theta)
    assert all(type(k) is int for k in keys)
    got = hashlib.sha256(",".join(map(str, keys)).encode()).hexdigest()
    assert got == digest
