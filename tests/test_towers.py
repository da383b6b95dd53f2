"""Derived limits of towers of sub-sums, with the spectral sequence as
the independent oracle for the per-page supports of the wedge tower."""

import random

import pytest

from imj.ssq import run
from imj.towers import (Lim1Witness, SubSum, SupportFunction, TowerSpec,
                        lim_lim1, moore_example, ssq_stage, truncated_kernel)


def constant_tower(support=frozenset({0, 1, 2})):
    return TowerSpec(3, 4, [support] * 3, TowerSpec.EVENTUALLY_CONSTANT)


def bounded_tower():
    g = SupportFunction(0, 3)
    stages = [frozenset(k for k in range(8) if k >= 3)] * 2
    return TowerSpec(3, 8, stages, g)


def test_constant_tower_is_its_own_limit():
    lim, lim1_nonzero, witness = lim_lim1(constant_tower())
    assert lim.finite == frozenset({0, 1, 2})
    assert lim1_nonzero is False
    assert witness is None


def test_eventually_constant_towers_are_mittag_leffler():
    rng = random.Random(6477)
    for _ in range(50):
        width = rng.randrange(2, 12)
        cur = set(range(width))
        stages = [frozenset(cur)]
        for _ in range(rng.randrange(1, 5)):
            cur -= {k for k in cur if rng.random() < 0.4}
            stages.append(frozenset(cur))
        stages.extend([stages[-1]] * rng.randrange(1, 3))
        t = TowerSpec(3, width, stages, TowerSpec.EVENTUALLY_CONSTANT)
        lim, lim1_nonzero, witness = lim_lim1(t)
        assert lim1_nonzero is False and witness is None
        assert lim.finite == stages[-1]


def test_moore_filtration_shape_p3():
    t = moore_example(3)
    assert t.first_page == 2
    assert t.stages[0] == frozenset(range(t.width))
    for i, s in enumerate(t.stages):
        assert s == frozenset(k for k in range(t.width)
                              if k >= max(0, (t.first_page + i) - 2))


def test_moore_filtration_prime_uniform():
    a, b = moore_example(3), moore_example(5)
    assert a.stages == b.stages and a.first_page == b.first_page


def test_moore_even_prime_refused():
    with pytest.raises(ValueError):
        moore_example(2)


@pytest.mark.parametrize("p", [1, 9, 15, 21])
def test_moore_composite_refused(p):
    # odd is not enough: the tower is over F_p
    with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}"):
        moore_example(p)


def test_moore_lim_vanishes_lim1_survives():
    lim, lim1_nonzero, witness = lim_lim1(moore_example(3))
    assert lim.is_zero()
    assert lim1_nonzero is True
    assert witness.entry(0) == witness.entry(63) == 1
    assert [witness.entry(k) for k in range(5)] == [1, 1, 1, 1, 1]
    for R in (1, 8, 64):
        assert witness.refutes_preimage_window(R)


def test_bounded_support_is_mittag_leffler():
    lim, lim1_nonzero, witness = lim_lim1(bounded_tower())
    assert lim.threshold == 3
    assert lim1_nonzero is False and witness is None


def test_shifted_support_same_verdict():
    # the reindexing freedom in the page labels must not change the answer
    for c in range(6):
        g = SupportFunction(1, -c)
        stages = [frozenset(k for k in range(8) if k >= max(0, r - c))
                  for r in (2, 3)]
        t = TowerSpec(3, 8, stages, g)
        lim, lim1_nonzero, _ = lim_lim1(t)
        assert lim.is_zero() and lim1_nonzero is True


def test_undeclared_tail_refused():
    with pytest.raises(ValueError, match="tail"):
        TowerSpec(3, 4, [frozenset({0, 1}), frozenset({0})], None)


def test_structure_maps_must_be_inclusions():
    with pytest.raises(ValueError, match="inclusion"):
        TowerSpec(3, 4, [frozenset({0}), frozenset({0, 1})],
                  TowerSpec.EVENTUALLY_CONSTANT)


def test_nested_tail_must_match_explicit_stages():
    g = SupportFunction(1, -2)
    with pytest.raises(ValueError, match="inconsistent"):
        TowerSpec(3, 4, [frozenset({0, 1, 2, 3}), frozenset({2, 3})], g)


def test_support_function_rejects_decreasing():
    with pytest.raises(ValueError):
        SupportFunction(-1, 5)


@pytest.mark.parametrize("width, stages, tail, message", [
    (0, [frozenset()], TowerSpec.EVENTUALLY_CONSTANT,
     "window must track at least one coordinate"),
    (4, [], TowerSpec.EVENTUALLY_CONSTANT, "need at least one explicit stage"),
    (4, [frozenset({0, 4})], TowerSpec.EVENTUALLY_CONSTANT,
     "stage support outside the tracked window"),
    (4, [frozenset({0})], "sometimes", "unknown tail pattern: 'sometimes'"),
])
def test_malformed_tower_refused(width, stages, tail, message):
    with pytest.raises(ValueError) as exc:
        TowerSpec(3, width, stages, tail)
    assert str(exc.value) == message


def test_stage_support_below_page_2_refused():
    with pytest.raises(ValueError) as exc:
        moore_example(3).stage_support(1)
    assert str(exc.value) == "page below the first stage"


def test_divergent_support_has_no_eventual_value():
    with pytest.raises(ValueError) as exc:
        SupportFunction(1, -2).eventual_value()
    assert str(exc.value) == "divergent support has no eventual value"


@pytest.mark.parametrize("finite, threshold", [({0}, 3), (None, None)])
def test_sub_sum_needs_exactly_one_support(finite, threshold):
    with pytest.raises(ValueError) as exc:
        SubSum(3, finite=finite, threshold=threshold)
    assert str(exc.value) == "exactly one of finite support or threshold"


def test_sub_sum_describes_a_finite_support():
    assert SubSum(3, finite={2, 0}).describe() == "F_3{0,2}"


def test_witness_has_no_negative_coordinate():
    with pytest.raises(ValueError) as exc:
        Lim1Witness(3).entry(-1)
    assert str(exc.value) == "coordinates are indexed by k >= 0"


def test_stage_support_extends_past_explicit_stages():
    t = moore_example(3)
    assert t.stage_support(2) == frozenset(range(6))
    assert t.stage_support(20) == frozenset()
    c = constant_tower()
    assert c.stage_support(100) == frozenset({0, 1, 2})


def test_truncated_exactness_every_window_up_to_64():
    # the last tower's first stage is larger than its limit, so the
    # kernel is a proper part of the window
    shrinking = TowerSpec(3, 6, [{0, 1, 2, 3}, {1, 2, 3}, {2, 3}],
                          TowerSpec.EVENTUALLY_CONSTANT)
    for t in (moore_example(3), bounded_tower(), constant_tower(),
              shrinking):
        lim, _, _ = lim_lim1(t)
        for R in range(1, 65):
            assert truncated_kernel(t, R) == \
                frozenset(k for k in range(R) if lim.contains(k))


def test_stages_match_ssq_through_page_6():
    t = moore_example(3)
    window = frozenset(range(5))
    for r in range(2, 7):
        got = ssq_stage(3, r, kmax=4)
        assert got == frozenset(k for k in range(5) if k >= max(0, r - 2))
        assert got == t.stage_support(r) & window


@pytest.mark.parametrize("p, kmax", [(3, 7), (5, 5)])
def test_ssq_stage_matches_moore_supports_past_the_window(p, kmax):
    tower = moore_example(p)
    for r in range(2, 9):
        got = ssq_stage(p, r, kmax)
        assert got == frozenset(k for k in range(kmax + 1) if k >= r - 2)
        if r <= 7:
            assert (frozenset(k for k in got if k < tower.width)
                    == tower.stage_support(r))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ssq_stage_matches_the_class_list_reading(p):
    # the oracle scans every class of page r for (t, 0, 0)
    def from_classes(r, kmax):
        alive = set()
        for k in range(kmax + 1):
            t = 2 * (p - 1) * p**k
            if any(c.t == t and c.f == 0 and c.c == 0
                   for c in run(p, (t, t), k + 4).page(r)):
                alive.add(k)
        return frozenset(alive)

    for kmax in range(7):
        for r in range(2, 10):
            assert ssq_stage(p, r, kmax) == from_classes(r, kmax), (r, kmax)
    with pytest.raises(KeyError):
        ssq_stage(p, 1, 4)


def test_ssq_stage_other_prime():
    assert ssq_stage(5, 3, kmax=2) == frozenset({1, 2})
    assert ssq_stage(5, 2, kmax=2) == frozenset({0, 1, 2})


def test_report_unpacks_and_prints():
    rep = lim_lim1(moore_example(3))
    lim, flag, wit = rep
    assert (lim, flag, wit) == (rep.lim, rep.lim1_nonzero, rep.witness)
    text = "\n".join(rep.lines())
    assert "lim = 0" in text and "lim1 nonzero: yes" in text
