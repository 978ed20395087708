"""Property tests: integer density keys agree with exact Fraction densities.

Horn, PHTF and MPHTF compare densities by ``floor(W * n**2 / s)`` on
integer-scaled weights (see :mod:`repro.scheduling.horn`).  On random
forests — ids numbered parent-first or shuffled, weights that are zero,
small integers (many ties), integers up to 10**6, dyadic fractions, or
arbitrary finite floats — these tests check that

* the keys order every pair of tasks exactly as the Fraction densities
  of :mod:`tests.scheduling.fraction_reference` do, ties included;
* ``task_density`` equals those densities and the Dinkelbach reference
  of :mod:`tests.scheduling.test_horn_reference`;
* Horn's, PHTF's and MPHTF's schedules equal the Fraction-keyed ones.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    compute_horn,
    horn_schedule,
    mphtf_schedule,
    phtf_schedule,
)
from repro.scheduling.instance import SchedulingInstance
from tests.scheduling.fraction_reference import (
    fraction_horn,
    fraction_horn_schedule,
    fraction_mphtf,
    fraction_phtf,
)
from tests.scheduling.test_horn_reference import reference_density

WEIGHT_KINDS = {
    "zero": st.just(0.0),
    "sparse": st.sampled_from([0.0, 0.0, 0.0, 1.0]),
    "small": st.integers(0, 3).map(float),
    "large": st.integers(0, 10**6).map(float),
    "dyadic": st.builds(
        lambda k, e: k / 2**e, st.integers(0, 64), st.integers(0, 6)
    ),
    "float": st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
}


@st.composite
def forests(draw, max_tasks: int = 40) -> SchedulingInstance:
    n = draw(st.integers(1, max_tasks))
    # Mostly chains (like the reduction's) or mostly random recursive
    # trees.  Long zero-weight chains give F-trees whose densities 1/k
    # and 1/(k+1) are about 1/n**2 apart: the case the key must resolve.
    chain = draw(st.sampled_from([0.0, 0.5, 0.9]))
    parent = [-1]
    for j in range(1, n):
        if draw(st.floats(0.0, 1.0)) < chain:
            parent.append(j - 1)
        else:
            parent.append(draw(st.integers(-1, j - 1)))
    if draw(st.booleans()):
        # Shuffle the ids so parents need not precede children: the
        # instance must then certify acyclicity by walking.
        perm = draw(st.permutations(range(n)))
        shuffled = [-1] * n
        for j, p in enumerate(parent):
            shuffled[perm[j]] = perm[p] if p >= 0 else -1
        parent = shuffled
    kinds = draw(st.lists(st.sampled_from(sorted(WEIGHT_KINDS)),
                          min_size=1, max_size=2))
    weights = draw(st.lists(st.one_of(*(WEIGHT_KINDS[k] for k in kinds)),
                            min_size=n, max_size=n))
    return SchedulingInstance(parent, weights, draw(st.integers(1, 4)))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@settings(max_examples=300, deadline=None)
@given(inst=forests())
def test_keys_order_every_pair_like_fraction_densities(inst):
    horn = compute_horn(inst)
    density, horn_root = fraction_horn(inst)
    key = horn.density_key
    n = inst.n_tasks
    for i in range(n):
        for j in range(n):
            assert _sign(key[i] - key[j]) == _sign(density[i] - density[j])
    assert list(horn.task_density) == density
    assert horn.horn_root.tolist() == horn_root


@settings(max_examples=300, deadline=None)
@given(inst=forests())
def test_schedules_match_fraction_keyed_reference(inst):
    horn = compute_horn(inst)
    density, horn_root = fraction_horn(inst)
    assert horn_schedule(inst, horn).steps == fraction_horn_schedule(
        inst, density
    )
    assert phtf_schedule(inst, horn).steps == fraction_phtf(inst, density)
    assert mphtf_schedule(inst, horn).steps == fraction_mphtf(
        inst, density, horn_root
    )


@settings(max_examples=100, deadline=None)
@given(inst=forests(max_tasks=25))
def test_task_density_matches_dinkelbach(inst):
    horn = compute_horn(inst)
    for j in range(inst.n_tasks):
        assert horn.task_density[j] == reference_density(inst, j)


def test_dyadic_weights_scale_to_exact_integers():
    inst = SchedulingInstance([-1, 0, 0], [0.5, 3.0, 0.125], P=1)
    assert inst.integer_weights == ([4, 24, 1], 8)
    horn = compute_horn(inst)
    # F_0 absorbs task 1 (density 3 > 1/2), then stops: 1/8 < 7/4.
    assert horn.f_size[0] == 2
    assert horn.f_weight[0] == Fraction(7, 2)
    assert horn.task_density[0] == Fraction(7, 4)
    assert horn.task_density[2] == Fraction(1, 8)


def test_keys_separate_densities_about_1_over_n_squared_apart():
    # Two zero-weight chains ending in weight 1: the heads' densities are
    # 1/13 and 1/12, which differ by 1/156 ~ 1/n**2 (n = 25).  The denser
    # chain has the higher ids, so a key that merged them would let the
    # lowest-id tie-break pick the wrong head first.
    parent = [-1] + list(range(12)) + [-1] + list(range(13, 24))
    weights = [0.0] * 12 + [1.0] + [0.0] * 11 + [1.0]
    inst = SchedulingInstance(parent, weights, P=1)
    horn = compute_horn(inst)
    assert horn.task_density[0] == Fraction(1, 13)
    assert horn.task_density[13] == Fraction(1, 12)
    assert horn.density_key[13] > horn.density_key[0]
    assert horn_schedule(inst, horn).steps[0] == [13]
