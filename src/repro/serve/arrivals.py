"""Arrival processes for the online serving loop.

The batch pipeline freezes the message set before planning; a service
ingests messages *over time*.  Every process here answers one question
per step — which keys arrive now? — deterministically from a seed, so a
serving run is replayable (the property the journal recovery path and
every test in ``tests/serve`` lean on).

Four processes cover the standard evaluation regimes:

* :class:`PoissonArrivals` — open-loop, iid ``Poisson(rate)`` arrivals
  per step (the classic steady-state / overload sweep driver);
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process
  (calm/burst) for correlated load spikes, the arrival-side analogue of
  :class:`~repro.faults.bursts.BurstInjector`;
* :class:`TraceArrivals` — replay an explicit ``(step, key)`` trace;
* :class:`ClosedLoopArrivals` — ``n_clients`` clients with a think time:
  a client issues its next message only after its previous one completed
  (or was shed), so offered load adapts to service capacity.

Keys are integers in ``[0, key_space)``; :class:`KeySampler` draws them
uniformly or Zipf-skewed (hot keys), mirroring
:func:`repro.workloads.zipf_instance`.  The serving loop routes keys to
shards and shard leaves (:mod:`repro.serve.router`).

Steps are 1-based like everywhere else in the package; an arrival
stamped at step 0 (or lower) is normalized to step 1, i.e. it is present
before the first flush — exactly the offline special case.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import InvalidInstanceError
from repro.util.rng import make_rng


class KeySampler:
    """Deterministic key popularity distribution over ``[0, key_space)``.

    ``theta = 0`` is uniform; larger values concentrate traffic on a few
    hot keys (Zipf over shuffled ranks, so hotness does not correlate
    with key order — and therefore not with shard id either).
    """

    def __init__(self, key_space: int, *, theta: float = 0.0,
                 seed: "int | np.random.Generator | None" = None) -> None:
        if key_space < 1:
            raise InvalidInstanceError(
                f"key_space must be >= 1, got {key_space}"
            )
        if theta < 0:
            raise InvalidInstanceError(f"theta must be >= 0, got {theta}")
        self.key_space = int(key_space)
        self.theta = float(theta)
        self._rng = make_rng(seed)
        if theta > 0:
            ranks = np.arange(1, self.key_space + 1, dtype=np.float64)
            probs = ranks**-theta
            probs /= probs.sum()
            # Generator.choice(keys, p=probs) inverts this CDF on every
            # call; building it once draws the same keys from the same
            # uniforms without re-validating ``probs`` each step.
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            self._cdf = cdf
            self._keys = self._rng.permutation(self.key_space)
        else:
            self._cdf = None
            self._keys = None

    def draw(self, n: int) -> "list[int]":
        """Draw ``n`` keys (deterministic given the construction seed)."""
        if n <= 0:
            return []
        if self._cdf is None:
            return self._rng.integers(0, self.key_space, size=n).tolist()
        idx = self._cdf.searchsorted(self._rng.random(n), side="right")
        return self._keys[idx].tolist()


class ArrivalProcess:
    """Interface the serving loop drives.

    ``take(step)`` must be called exactly once per step, with steps
    strictly increasing; it returns the keys arriving at that step.  The
    loop then reports the global message ids it assigned via
    :meth:`on_emitted`, and later feeds back completions/sheds — open-loop
    processes ignore the feedback, closed-loop ones live off it.
    """

    def take(self, step: int) -> "list[int]":
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """True once no future step can produce an arrival."""
        raise NotImplementedError

    def on_emitted(self, msg_ids: "list[int]") -> None:
        """The loop assigned these global ids to the keys just taken."""

    def notify_completion(self, msg_id: int, step: int) -> None:
        """Message ``msg_id`` reached its target leaf at ``step``."""

    def notify_shed(self, msg_id: int, step: int) -> None:
        """Message ``msg_id`` was shed by admission control at ``step``."""


class PoissonArrivals(ArrivalProcess):
    """Open loop: ``Poisson(rate)`` arrivals per step, ``n_messages`` total.

    The final draw is truncated so exactly ``n_messages`` keys are emitted
    over the run.
    """

    def __init__(self, rate: float, n_messages: int, sampler: KeySampler,
                 *, seed: "int | np.random.Generator | None" = None) -> None:
        if not rate > 0:  # also rejects NaN
            raise InvalidInstanceError(f"rate must be > 0, got {rate}")
        if n_messages < 0:
            raise InvalidInstanceError(
                f"n_messages must be >= 0, got {n_messages}"
            )
        self.rate = float(rate)
        self.n_messages = int(n_messages)
        self.sampler = sampler
        self._rng = make_rng(seed)
        self._emitted = 0

    def take(self, step: int) -> "list[int]":
        left = self.n_messages - self._emitted
        if left <= 0:
            return []
        n = min(left, int(self._rng.poisson(self.rate)))
        self._emitted += n
        return self.sampler.draw(n)

    @property
    def exhausted(self) -> bool:
        return self._emitted >= self.n_messages


class MMPPArrivals(ArrivalProcess):
    """Markov-modulated Poisson process: calm/burst states with their own
    rates and geometric sojourns (``p_burst`` = calm->burst transition
    probability per step, ``p_calm`` = burst->calm)."""

    def __init__(self, calm_rate: float, burst_rate: float, n_messages: int,
                 sampler: KeySampler, *, p_burst: float = 0.05,
                 p_calm: float = 0.25,
                 seed: "int | np.random.Generator | None" = None) -> None:
        if not calm_rate >= 0 or not burst_rate > 0:  # also rejects NaN
            raise InvalidInstanceError(
                "rates must satisfy calm_rate >= 0 and burst_rate > 0"
            )
        for name, p in (("p_burst", p_burst), ("p_calm", p_calm)):
            if not (0.0 < p <= 1.0):
                raise InvalidInstanceError(f"{name} must be in (0, 1]")
        self.calm_rate = float(calm_rate)
        self.burst_rate = float(burst_rate)
        self.p_burst = float(p_burst)
        self.p_calm = float(p_calm)
        self.n_messages = int(n_messages)
        self.sampler = sampler
        self._rng = make_rng(seed)
        self._emitted = 0
        self._bursting = False

    def take(self, step: int) -> "list[int]":
        # State transition first, then the draw, so a burst's first step
        # already runs hot.
        flip = float(self._rng.random())
        if self._bursting:
            if flip < self.p_calm:
                self._bursting = False
        elif flip < self.p_burst:
            self._bursting = True
        left = self.n_messages - self._emitted
        if left <= 0:
            return []
        rate = self.burst_rate if self._bursting else self.calm_rate
        n = min(left, int(self._rng.poisson(rate)))
        self._emitted += n
        return self.sampler.draw(n)

    @property
    def exhausted(self) -> bool:
        return self._emitted >= self.n_messages


class TraceArrivals(ArrivalProcess):
    """Replay an explicit ``(step, key)`` trace (steps normalized to >= 1).

    The offline special case is ``TraceArrivals([(0, k) for k in keys])``:
    everything present before the first flush.
    """

    def __init__(self, trace: "list[tuple[int, int]]") -> None:
        self._by_step: dict[int, list[int]] = {}
        self._last_step = 0
        for step, key in trace:
            s = max(1, int(step))
            self._by_step.setdefault(s, []).append(int(key))
            self._last_step = max(self._last_step, s)
        self._taken_through = 0

    def take(self, step: int) -> "list[int]":
        self._taken_through = max(self._taken_through, int(step))
        return self._by_step.get(int(step), [])

    @property
    def exhausted(self) -> bool:
        return self._taken_through >= self._last_step


class ClosedLoopArrivals(ArrivalProcess):
    """Closed loop: each of ``n_clients`` clients keeps one message in
    flight, issuing the next one ``think_time`` steps after the previous
    completed (or was shed).  Stops after ``n_messages`` total issues.
    """

    def __init__(self, n_clients: int, n_messages: int, sampler: KeySampler,
                 *, think_time: int = 0) -> None:
        if n_clients < 1:
            raise InvalidInstanceError(
                f"n_clients must be >= 1, got {n_clients}"
            )
        if think_time < 0:
            raise InvalidInstanceError(
                f"think_time must be >= 0, got {think_time}"
            )
        self.n_clients = int(n_clients)
        self.n_messages = int(n_messages)
        self.think_time = int(think_time)
        self.sampler = sampler
        self._emitted = 0
        #: client id -> step at which it may issue again (1 = immediately).
        self._ready_at = [1] * self.n_clients
        #: clients whose issue at the current take() awaits an id mapping.
        self._issuing: list[int] = []
        #: global message id -> client that issued it.
        self._owner: dict[int, int] = {}

    def take(self, step: int) -> "list[int]":
        self._issuing = []
        if self._emitted >= self.n_messages:
            return []
        for client in range(self.n_clients):
            if self._emitted >= self.n_messages:
                break
            ready = self._ready_at[client]
            if ready is not None and ready <= step:
                self._ready_at[client] = None  # in flight
                self._issuing.append(client)
                self._emitted += 1
        return self.sampler.draw(len(self._issuing))

    def on_emitted(self, msg_ids: "list[int]") -> None:
        for client, gid in zip(self._issuing, msg_ids):
            self._owner[gid] = client
        self._issuing = []

    def _release(self, msg_id: int, step: int) -> None:
        # pop() makes release exactly-once: a duplicate completion/shed
        # notification (or a shed racing a completion) finds no owner and
        # cannot double-free the client slot.
        client = self._owner.pop(msg_id, None)
        if client is not None:
            self._ready_at[client] = step + 1 + self.think_time

    def notify_completion(self, msg_id: int, step: int) -> None:
        self._release(msg_id, step)

    def notify_shed(self, msg_id: int, step: int) -> None:
        """A shed releases the issuing client exactly once (idempotent)."""
        self._release(msg_id, step)

    @property
    def exhausted(self) -> bool:
        return self._emitted >= self.n_messages
