import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bell_lab.core import RngStream, Trials, tabulate
from bell_lab.estimators import (ChshEstimate, CounterSet, EberhardCounts,
                                 bell_counter_test, chsh, chsh_from_counters,
                                 correlation, eberhard_counterfactual,
                                 eberhard_counts, eberhard_j, vongher_counters)
from bell_lab.sources import singlet_pairs

SQRT2 = math.sqrt(2.0)


def rows_at(sa, sb, pairs):
    return [(sa, sb, a, b) for a, b in pairs]


def trials_of(rows):
    """Trials from (setting_a, setting_b, a, b) rows."""
    return Trials(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def table_of(rows):
    """The count table of (setting_a, setting_b, a, b) rows."""
    return tabulate(trials_of(rows))


# ---------------------------------------------------------------------------
# correlation

def test_correlation_basic():
    assert correlation(table_of(rows_at(0, 0, [(1, 1), (1, -1)]))) == 0.0
    assert correlation(table_of(rows_at(0, 0, [(1, -1), (-1, 1)]))) == -1.0


def test_correlation_none_without_data():
    assert correlation(table_of([])) is None
    assert correlation(table_of([(0, 0, 0, 1)])) is None


def test_correlation_no_count_handling():
    trials = trials_of(rows_at(0, 0, [(1, 1), (0, 1), (1, 0)]))
    assert correlation(tabulate(trials)) == 1.0
    assert correlation(tabulate(trials), coincident_only=False) == pytest.approx(1 / 3)


def test_correlation_counts_only_coincident_trials():
    trials = trials_of(rows_at(0, 0, [(1, 1), (1, -1), (0, 1)]))
    assert correlation(tabulate(trials)) == 0.0
    assert int(trials.coincident.sum()) == 2


# ---------------------------------------------------------------------------
# CHSH

def test_chsh_groups_and_value():
    trials = (rows_at(0, 0, [(1, 1)] * 4)
              + rows_at(0, 1, [(1, 1)] * 3)
              + rows_at(1, 0, [(-1, -1)] * 2)
              + rows_at(1, 1, [(1, -1)] * 2))
    est = chsh(table_of(trials))
    assert est.sizes == (4, 3, 2, 2)
    assert est.terms() == {"ab": 1.0, "abp": 1.0, "apb": 1.0, "apbp": -1.0}
    assert est.s_value == 4.0  # measured groups are free of the bound


def test_chsh_undefined_when_a_group_is_empty():
    est = chsh(table_of(rows_at(0, 0, [(1, 1), (-1, -1)])))
    assert est.n_apbp == 0
    assert est.s_value is None


def test_chsh_respects_custom_labels():
    trials = (rows_at(0, 0, [(1, -1)] * 2) + rows_at(0, 2, [(1, -1)] * 2)
              + rows_at(3, 0, [(1, -1)] * 2) + rows_at(3, 2, [(1, 1)] * 2))
    est = chsh(table_of(trials), a_labels=(0, 3), b_labels=(0, 2))
    assert est.s_value == pytest.approx(-4.0)


def test_chsh_and_j_reject_a_repeated_setting_label():
    # every cell sits at (0, 1), so a repeated label would count the one
    # setting pair as all four CHSH groups and all four J pairs
    table = table_of(rows_at(0, 1, [(1, -1), (-1, 1), (1, 1)]))
    for labels in (dict(a_labels=(0, 0), b_labels=(1, 1)),
                   dict(a_labels=(0, 1), b_labels=(1, 1)),
                   dict(a_labels=(0, 0), b_labels=(0, 1))):
        with pytest.raises(ValueError, match="names setting . twice"):
            chsh(table, **labels)
        with pytest.raises(ValueError, match="names setting . twice"):
            eberhard_counts(table, **labels)


def test_chsh_no_counts_shrink_groups():
    trials = (rows_at(0, 0, [(1, 1), (0, 1)]) + rows_at(0, 1, [(1, 1)])
              + rows_at(1, 0, [(1, 1)]) + rows_at(1, 1, [(1, 1)]))
    est = chsh(table_of(trials))
    assert est.n_ab == 1


def test_chsh_singlet_reaches_two_sqrt_two():
    # analyzer angles realizing the maximal quantum magnitude: the
    # unprimed A analyzer at pi/2, primed at 0, against B at pi/4 and
    # 3*pi/4; every term is then -+cos(pi/4) with the signs aligned
    angles = {(0, 0): (math.pi / 2, math.pi / 4),
              (0, 1): (math.pi / 2, 3 * math.pi / 4),
              (1, 0): (0.0, math.pi / 4),
              (1, 1): (0.0, 3 * math.pi / 4)}
    n = 40_000
    rng = RngStream(20).generator()
    sa, sb, av, bv = [], [], [], []
    for (x, y), (ta, tb) in angles.items():
        a, b = singlet_pairs(ta, tb, n, rng)
        sa.append(np.full(n, x))
        sb.append(np.full(n, y))
        av.append(a)
        bv.append(b)
    est = chsh(tabulate(Trials(np.concatenate(sa), np.concatenate(sb),
                               np.concatenate(av), np.concatenate(bv))))
    assert abs(est.s_value) == pytest.approx(2 * SQRT2, abs=8 / math.sqrt(n))


# ---------------------------------------------------------------------------
# equal/unequal counters

def test_counter_set_validation():
    cs = CounterSet((1, 2, 3, 4), (0, 0, 0, 0))
    assert cs.totals() == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        CounterSet((1, 2, 3), (0, 0, 0))
    with pytest.raises(ValueError):
        CounterSet((1, 2, 3, -1), (0, 0, 0, 0))


def test_vongher_counters_by_distance():
    trials = (
        rows_at(0, 0, [(1, 1), (1, -1)])        # d = 0
        + rows_at(0, 2, [(1, 1)] * 3)           # d = 2
        + rows_at(3, 2, [(1, -1)] * 2)          # d = 1
        + rows_at(3, 0, [(-1, -1)])             # d = 3
        + rows_at(0, 0, [(0, 1), (1, 0)])       # no-counts touch nothing
    )
    cs = vongher_counters(table_of(trials))
    assert cs.n_e == (1, 0, 3, 1)
    assert cs.n_u == (1, 2, 0, 0)


def test_vongher_counters_reject_foreign_settings():
    with pytest.raises(ValueError):
        vongher_counters(table_of([(1, 0, 1, 1)]))
    with pytest.raises(ValueError):
        vongher_counters(table_of([(0, 1, 1, 1)]))


def test_bell_counter_test_sides():
    cs = CounterSet((0, 0, 4, 0), (0, 7, 0, 2))
    res = bell_counter_test(cs)
    assert (res.lhs, res.rhs) == (7, 6)
    assert res.violated
    assert not bell_counter_test(CounterSet((0, 0, 4, 0), (0, 6, 0, 2))).violated


def test_chsh_from_counters_values():
    cs = CounterSet((0, 5, 0, 10), (10, 5, 10, 0))
    res = chsh_from_counters(cs)
    assert res.e_tilde == (1.0, 0.0, 1.0, -1.0)
    assert res.s_value == 3.0


def test_chsh_from_counters_undefined_on_empty_distance():
    res = chsh_from_counters(CounterSet((1, 1, 1, 0), (1, 1, 1, 0)))
    assert res.s_value is None
    assert res.e_tilde == (None, None, None, None)


# ---------------------------------------------------------------------------
# six-count J

def test_eberhard_j_arithmetic():
    counts = EberhardCounts(10, 1, 2, 3, 4, 5)
    assert eberhard_j(counts) == 1 + 2 + 3 + 4 + 5 - 10
    with pytest.raises(ValueError):
        EberhardCounts(-1, 0, 0, 0, 0, 0)


def test_eberhard_counts_from_trials():
    trials = (rows_at(0, 0, [(1, 1), (1, -1)])
              + rows_at(0, 1, [(1, -1), (1, 0), (-1, -1)])
              + rows_at(1, 0, [(-1, 1), (0, 1), (1, 1)])
              + rows_at(1, 1, [(1, 1), (1, 1)]))
    c = eberhard_counts(table_of(trials))
    assert c == EberhardCounts(n_oo_11=1, n_oe_12=1, n_ou_12=1,
                               n_eo_21=1, n_uo_21=1, n_oo_22=2)
    assert eberhard_j(c) == 5


def test_eberhard_counts_rejects_stray_labels():
    with pytest.raises(ValueError):
        eberhard_counts(table_of([(2, 0, 1, 1)]))


def test_eberhard_counterfactual_row_bound_exhaustive():
    # all 81 ternary assignments of (a1, a2, b1, b2): the subtracted
    # count can never outrun the five added ones
    for row in itertools.product((1, -1, 0), repeat=4):
        a1, a2, b1, b2 = ([v] for v in row)
        j = eberhard_j(eberhard_counterfactual(a1, a2, b1, b2))
        assert j >= 0, f"row {row} gives J = {j}"


@given(st.lists(st.tuples(*[st.sampled_from((1, -1, 0))] * 4),
                min_size=1, max_size=200))
def test_eberhard_counterfactual_additive_and_nonnegative(rows):
    cols = list(zip(*rows))
    total = eberhard_j(eberhard_counterfactual(*cols))
    per_row = sum(eberhard_j(eberhard_counterfactual(*[[v] for v in row]))
                  for row in rows)
    assert total == per_row
    assert total >= 0
