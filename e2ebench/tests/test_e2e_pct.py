"""Percentile sample guard and epoch-interval extraction."""

import time

import pytest

from repro.serve.loop import ServeConfig, ServiceLoop
from repro.serve.procpool import ProcPoolLoop

from e2ebench.pct import epoch_intervals, samples_needed, tail_rank


@pytest.mark.parametrize("q, n", [(50, 20), (99, 1000), (99.9, 10000)])
def test_tail_rank_needs_ten_samples_beyond(q, n):
    assert samples_needed(q) == n
    assert tail_rank(range(n - 1), q) is None
    for size in range(n, n + 3):
        got = tail_rank(range(size), q)
        if got is not None:
            # distinct values: the count above the rank is the positions
            assert size - 1 - got >= 10
    assert tail_rank(range(n + 2), q) is not None


def test_tail_rank_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert tail_rank(values, 99) == 990.0
    assert tail_rank(values, 50) == 500.0
    assert tail_rank([], 50) is None


def test_epoch_intervals_from_boundary_takes():
    takes = [(1, 0.0), (2, 0.1), (3, 0.5), (4, 0.7), (5, 1.5), (6, 1.6)]
    assert epoch_intervals(takes, 2) == pytest.approx([0.5, 1.0])
    assert epoch_intervals(takes, 4) == pytest.approx([1.5])
    assert epoch_intervals(takes[:1], 2) == []


def _recorded_takes(loop):
    takes = []
    take = loop.arrivals.take

    def recorded(t):
        takes.append((t, time.perf_counter()))
        return take(t)

    loop.arrivals.take = recorded
    report = loop.run()
    return takes, report


@pytest.mark.parametrize("driver", ["inproc", "procpool"])
def test_epoch_intervals_under_both_drivers(driver):
    config = ServeConfig(messages=600, rate=4.0, shards=2, seed=5)
    loop = (
        ProcPoolLoop(config, processes=1) if driver == "procpool"
        else ServiceLoop(config)
    )
    takes, report = _recorded_takes(loop)
    steps = [t for t, _ts in takes]
    # Both drivers take every step exactly once, in order; the pool
    # draws a whole epoch's chunk up front, so it may run past the end.
    assert steps[:report.n_steps] == list(range(1, report.n_steps + 1))
    assert len(steps) - report.n_steps < config.epoch
    times = [ts for _t, ts in takes]
    assert times == sorted(times)
    e = config.epoch
    boundaries = [t for t in steps if (t - 1) % e == 0]
    intervals = epoch_intervals(takes, e)
    assert len(intervals) == len(boundaries) - 1 > 0
    assert all(x > 0 for x in intervals)
    # The intervals tile the run from the first to the last boundary.
    first = times[0]
    last = next(ts for t, ts in reversed(takes) if t == boundaries[-1])
    assert sum(intervals) == pytest.approx(last - first)
