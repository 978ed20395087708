"""NaN and infinite weights are rejected with a typed error at construction.

A ``< 0`` check alone lets NaN and ``+inf`` through; they would only fail
later, deep inside the density computation, as an untyped ``ValueError``
or ``OverflowError``.
"""

from __future__ import annotations

import math

import pytest

from repro.core import solve_worms
from repro.core.worms import WORMSInstance
from repro.scheduling import compute_horn
from repro.scheduling.instance import SchedulingInstance
from repro.tree import Message, balanced_tree
from repro.util.errors import InvalidInstanceError

NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_scheduling_instance_rejects_non_finite_weight(bad):
    with pytest.raises(InvalidInstanceError, match="finite"):
        SchedulingInstance([-1, 0], [1.0, bad], P=1)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_worms_instance_rejects_non_finite_weight(bad):
    topo = balanced_tree(2, 2)
    msgs = [Message(0, topo.leaves[0]), Message(1, topo.leaves[1])]
    with pytest.raises(InvalidInstanceError, match="finite"):
        WORMSInstance(topo, msgs, P=1, B=4, weights=[1.0, bad])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_solve_worms_input_with_non_finite_weight_fails_typed(bad):
    topo = balanced_tree(2, 2)
    msgs = [Message(i, leaf) for i, leaf in enumerate(topo.leaves)]
    weights = [1.0] * len(msgs)
    weights[-1] = bad
    with pytest.raises(InvalidInstanceError):
        solve_worms(WORMSInstance(topo, msgs, P=2, B=4, weights=weights))


def test_extreme_finite_weights_stay_exact():
    # The largest and the smallest positive floats both scale to exact
    # integers; their densities compare correctly.
    inst = SchedulingInstance([-1, -1, -1], [1.7976931348623157e308,
                                             5e-324, 0.0], P=1)
    horn = compute_horn(inst)
    assert horn.density_key[0] > horn.density_key[1] > horn.density_key[2]
