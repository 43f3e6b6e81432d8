import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bell_lab.core import CountTable, RngStream, Trials, tabulate
from bell_lab.estimators import (ChshEstimate, CounterSet, EberhardCounts,
                                 bell_counter_test, chsh, chsh_from_counters,
                                 correlation, eberhard_counterfactual,
                                 eberhard_counts, eberhard_j, plain,
                                 vongher_counters)
from bell_lab.sources import SETTINGS_A, SETTINGS_B, singlet_pairs

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


# ---------------------------------------------------------------------------
# the array estimators against a dict walk over (x, y, a, b) cells

def walk_group(table, coincident_only, pair=None):
    """(mean of a*b, count used) over the cells at setting pair `pair`, or
    over every cell; the mean is None when nothing is usable."""
    total = n = 0
    for (x, y, a, b), count in table.items():
        if (pair is None or (x, y) == pair) and (a * b or not coincident_only):
            total += a * b * count
            n += count
    return (total / n if n else None), n


def walk_counters(table):
    """(n_e, n_u) by distance |y - x|, or None when a label is off the grid."""
    n_e, n_u = [0] * 4, [0] * 4
    for (x, y, a, b), count in table.items():
        if x not in SETTINGS_A or y not in SETTINGS_B:
            return None
        if a * b:
            (n_e if a == b else n_u)[abs(y - x)] += count
    return tuple(n_e), tuple(n_u)


def walk_eberhard(table, a_labels, b_labels):
    """The six J counts, or None when a label is outside a_labels, b_labels."""
    if any(x not in a_labels or y not in b_labels for x, y, _, _ in table):
        return None
    (a1, a2), (b1, b2) = a_labels, b_labels
    return tuple(table.get(cell, 0) for cell in (
        (a1, b1, 1, 1), (a1, b2, 1, -1), (a1, b2, 1, 0),
        (a2, b1, -1, 1), (a2, b1, 0, 1), (a2, b2, 1, 1)))


OUTCOME = st.sampled_from((1, -1, 0))
TWO_LABELS = st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True)


@st.composite
def rows_on_a_grid(draw):
    """Rows (x, y, a, b) whose labels stay on the ball protocol's grid, or
    may leave it."""
    xs = draw(st.sampled_from([SETTINGS_A, (0, 1, 3)]))
    ys = draw(st.sampled_from([SETTINGS_B, (0, 1, 2)]))
    return draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(ys),
                                   OUTCOME, OUTCOME), max_size=40))


@given(rows_on_a_grid(), TWO_LABELS, TWO_LABELS, st.booleans())
def test_estimators_match_a_dict_walk(rows, a_labels, b_labels, coincident_only):
    # labels the table lacks count as empty groups
    # the dict table: {(x, y, a, b): count} over the cells seen
    table, cells = table_of(rows), dict(Counter(rows))
    assert correlation(table, coincident_only) == walk_group(cells, coincident_only)[0]
    est = chsh(table, a_labels, b_labels, coincident_only)
    groups = [walk_group(cells, coincident_only, (x, y))
              for x in a_labels for y in b_labels]
    e = [v for v, _ in groups]
    assert list(est.terms().values()) == e
    assert est.sizes == tuple(n for _, n in groups)
    assert all(type(n) is int for n in est.sizes)
    assert est.s_value == (None if None in e else e[0] + e[1] + e[2] - e[3])

    counters = walk_counters(cells)
    if counters is None:
        with pytest.raises(ValueError, match="settings must be in"):
            vongher_counters(table)
    else:
        got = vongher_counters(table)
        assert (got.n_e, got.n_u) == counters
        totals = [e + u for e, u in zip(*counters)]
        e_tilde = ([(u - e) / t for e, u, t in zip(*counters, totals)]
                   if all(totals) else [None] * 4)
        cc = chsh_from_counters(got)
        assert cc.e_tilde == tuple(e_tilde)
        assert cc.s_value == (e_tilde[0] + e_tilde[1] + e_tilde[2] - e_tilde[3]
                              if all(totals) else None)
    counts = walk_eberhard(cells, a_labels, b_labels)
    if counts is None:
        with pytest.raises(ValueError, match="settings must be in"):
            eberhard_counts(table, a_labels, b_labels)
    else:
        got = eberhard_counts(table, a_labels, b_labels)
        assert tuple(vars(got).values()) == counts


def values_of(table, coincident_only) -> tuple:
    """Every value the estimators give for a table on the ball protocol's
    grid, in a fixed order."""
    labels = dict(a_labels=SETTINGS_A, b_labels=SETTINGS_B)
    est = chsh(table, coincident_only=coincident_only, **labels)
    counters = vongher_counters(table)
    bell = bell_counter_test(counters)
    cc = chsh_from_counters(counters)
    return (correlation(table, coincident_only), *vars(est).values(), est.s_value,
            *counters.n_e, *counters.n_u, bell.lhs, bell.rhs, bell.violated,
            *cc.e_tilde, cc.s_value, *vars(eberhard_counts(table, **labels)).values())


@given(st.lists(st.lists(st.tuples(st.sampled_from(SETTINGS_A),
                                   st.sampled_from(SETTINGS_B), OUTCOME, OUTCOME),
                         max_size=20), min_size=1, max_size=4),
       st.booleans())
def test_a_stacked_table_scores_each_run_as_its_slice(runs, coincident_only):
    tables = [tabulate(trials_of(rows), SETTINGS_A, SETTINGS_B) for rows in runs]
    stacked = CountTable(SETTINGS_A, SETTINGS_B,
                         np.stack([t.counts for t in tables]))
    over_runs = values_of(stacked, coincident_only)
    for run, table in enumerate(tables):
        assert (tuple(plain(np.asarray(v)[run]) for v in over_runs)
                == values_of(table, coincident_only))
