"""The serving loop's conservation invariant, checked at every heartbeat.

Every arrival must be completed, shed, queued in an admission lane (a
quarantined shard's held arrivals included) or resident in a shard
engine — on *some* shard, since a diversion routes a key range's later
arrivals elsewhere.  The only exception is state lost with a killed
shard that is quarantined (or recovering) and awaits its restart.
Admission's own books balance at the same time:
``offered == admitted + shed + queued``.
"""

from __future__ import annotations

from repro.serve import QUARANTINED, RECOVERING, ServiceLoop


class ConservationChecked(ServiceLoop):
    """A :class:`ServiceLoop` that asserts conservation at every
    heartbeat; ``checked`` counts the heartbeats checked."""

    checked = 0

    def _heartbeat(self, t: int) -> None:
        super()._heartbeat(t)
        m = self.metrics
        accounted: set = set(m.completion_step) | set(m.shed_ids)
        for lanes in self.admission.lanes:
            for q in lanes:
                accounted |= {gid for gid, _leaf in q}
        for engine in self.engines:
            accounted |= set(engine.location)
        for gid in set(m.arrival_step) - accounted:
            sid = m.shard_of[gid]
            assert self._health[sid] in (QUARANTINED, RECOVERING), (
                f"message {gid} unaccounted for on {self._health[sid]} "
                f"shard {sid} at step {t}"
            )
        adm = self.admission.stats
        queued = sum(self.admission.queue_depths())
        assert adm.offered == adm.admitted + adm.shed + queued, (
            f"step {t}: offered {adm.offered} != admitted {adm.admitted} "
            f"+ shed {adm.shed} + queued {queued}"
        )
        type(self).checked += 1


def run_checked(config, **kwargs):
    """Run ``ConservationChecked(config, **kwargs)``; the loop and its
    report, after at least one checked heartbeat."""
    ConservationChecked.checked = 0
    loop = ConservationChecked(config, **kwargs)
    report = loop.run()
    assert ConservationChecked.checked > 0
    return loop, report


def assert_exact(report) -> None:
    """The finished run balances: every arrival completed or shed, and
    every offer admitted or shed."""
    snap = report.snapshot
    assert snap["arrived"] == snap["completed"] + snap["shed"]
    assert snap["in_flight"] == 0
    adm = report.admission_stats
    assert adm.offered == snap["arrived"]
    assert adm.offered == adm.admitted + adm.shed
