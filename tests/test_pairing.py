from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bell_lab import pairing
from bell_lab.core import NO_COUNT, Events, RngStream, Trials
from bell_lab.pairing import (UNPAIRED_SETTING, covariance,
                              pair_counting_unmatched, pair_random,
                              pair_systematic, pair_time_window)
from peak_memory import peak_bytes_per_item


def events_of(*rows):
    """Events from (window, setting, outcome) rows."""
    return Events(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def trials_of(*rows):
    """Trials from (setting_a, setting_b, a, b) rows."""
    return Trials(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def rows(trials):
    """(setting_a, setting_b, a, b) tuples read off the columns."""
    return list(zip(trials.setting_a.tolist(), trials.setting_b.tolist(),
                    trials.a.tolist(), trials.b.tolist()))


def alternating_streams(na=1000, nb=1003):
    # side A outcomes -1,+1,-1,...; side B outcomes +1,-1,+1,...
    ea = events_of(*((i, 0, -1 if i % 2 == 0 else 1) for i in range(na)))
    eb = events_of(*((i, 0, 1 if i % 2 == 0 else -1) for i in range(nb)))
    return ea, eb


# ---------------------------------------------------------------------------
# systematic offsets

def test_systematic_offset_flips_sign_with_parity():
    # at offset k the products are (-1)^k for every trial, and with an
    # even trial count both margins vanish, so the covariance is exactly
    # the product: -1 for odd k, +1 for even k
    ea, eb = alternating_streams()
    for k in (1, 2, 3, 4):
        trials = pair_systematic(ea, eb, k)
        assert len(trials) == 1000
        want = -1.0 if k % 2 else 1.0
        assert (trials.a * trials.b == want).all()
        assert covariance(trials) == want


def test_systematic_length_rule():
    ea, eb = alternating_streams(5, 3)
    assert len(pair_systematic(ea, eb, 1)) == 3
    assert len(pair_systematic(ea, eb, 2)) == 2
    assert len(pair_systematic(ea, eb, 4)) == 0
    with pytest.raises(ValueError):
        pair_systematic(ea, eb, 0)


def test_systematic_carries_settings_through():
    ea = events_of((0, 7, 1))
    eb = events_of((0, 9, -1))
    assert rows(pair_systematic(ea, eb, 1)) == [(7, 9, 1, -1)]


# ---------------------------------------------------------------------------
# random index pairing

def label_by_index(n):
    return events_of(*((i, i, 1) for i in range(n)))


def test_random_pairing_respects_order_constraint():
    ea, eb = label_by_index(6), label_by_index(6)
    trials = pair_random(ea, eb, 500, RngStream(0).generator())
    assert len(trials) == 500
    assert (trials.setting_a <= trials.setting_b).all()


def test_random_pairing_uniform_over_allowed_pairs():
    ea, eb = label_by_index(3), label_by_index(3)
    m = 30_000
    trials = pair_random(ea, eb, m, RngStream(1).generator())
    counts = Counter(zip(trials.setting_a.tolist(), trials.setting_b.tolist()))
    assert sorted(counts) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for c in counts.values():  # 5 sigma around m/6
        assert abs(c - m / 6) < 5 * np.sqrt(m * (1 / 6) * (5 / 6))


def test_random_pairing_edge_cases():
    ea, eb = label_by_index(4), label_by_index(4)
    gen = RngStream(2)
    assert len(pair_random(ea, eb, 0, gen.generator())) == 0
    t1 = pair_random(ea, eb, 50, gen.generator())
    t2 = pair_random(ea, eb, 50, gen.generator())
    assert rows(t1) == rows(t2)
    with pytest.raises(ValueError):
        pair_random(events_of(), eb, 5, gen.generator())
    with pytest.raises(ValueError):
        pair_random(ea, eb, -1, gen.generator())


# ---------------------------------------------------------------------------
# time-window matching

def ev(w, outcome=1, setting=0):
    return (w, setting, outcome)


def test_window_matching_hand_example():
    ea = events_of(ev(0, 1), ev(10, -1), ev(20, 1))
    eb = events_of(ev(1, -1), ev(9, 1), ev(100, -1))
    trials = pair_time_window(ea, eb, 2.0)
    assert rows(trials) == [
        (0, 0, 1, -1),              # windows 0 and 1
        (0, 0, -1, 1),              # windows 10 and 9
        (0, UNPAIRED_SETTING, 1, NO_COUNT),    # lone A at 20
        (UNPAIRED_SETTING, 0, NO_COUNT, -1),   # lone B at 100
    ]


def test_window_matching_is_greedy():
    # the A event takes the earliest candidate even when a later one is closer
    ea = events_of(ev(5, 1))
    eb = events_of(ev(3, -1), ev(5, 1))
    trials = pair_time_window(ea, eb, 3.0)
    assert rows(trials) == [(0, 0, 1, -1), (UNPAIRED_SETTING, 0, NO_COUNT, 1)]


def test_window_bound_is_strict():
    ea = events_of(ev(0, 1))
    eb = events_of(ev(2, -1))
    trials = pair_time_window(ea, eb, 2.0)
    assert not trials.coincident.any()
    assert len(trials) == 2


def test_window_tie_orders_matched_trial_first():
    # the matched trial is keyed by its earliest member (the B at 5), so
    # it ties with the leftover B at 5 and wins the tiebreak
    ea = events_of(ev(6, 1))
    eb = events_of(ev(5, -1, setting=1), ev(5, 1, setting=2))
    trials = pair_time_window(ea, eb, 2.0)
    assert rows(trials) == [(0, 1, 1, -1), (UNPAIRED_SETTING, 2, NO_COUNT, 1)]


def reference_time_window(ea, eb, width):
    """The record-by-record greedy merge the column version must equal:
    (window, setting, outcome) events in, (setting_a, setting_b, a, b)
    trials out."""
    ea = sorted(ea, key=lambda e: e[0])
    eb = sorted(eb, key=lambda e: e[0])
    keyed, j, matched_b = [], 0, [False] * len(eb)
    for wa, sa, oa in ea:
        while j < len(eb) and eb[j][0] <= wa - width:
            j += 1
        if j < len(eb) and abs(eb[j][0] - wa) < width:
            wb, sb, ob = eb[j]
            matched_b[j] = True
            j += 1
            keyed.append((min(wa, wb), 0, (sa, sb, oa, ob)))
        else:
            keyed.append((wa, 0, (sa, UNPAIRED_SETTING, oa, NO_COUNT)))
    for k, (wb, sb, ob) in enumerate(eb):
        if not matched_b[k]:
            keyed.append((wb, 1, (UNPAIRED_SETTING, sb, NO_COUNT, ob)))
    keyed.sort(key=lambda kt: (kt[0], kt[1]))
    return [t for _, _, t in keyed]


event_rows = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1),
                                st.sampled_from((1, -1, 0))), max_size=30)


@given(event_rows, event_rows, st.sampled_from((0.5, 1, 1.5, 2, 3, 7.25)))
def test_window_matching_equals_the_record_merge(rows_a, rows_b, width):
    want = reference_time_window(rows_a, rows_b, width)
    trials = pair_time_window(events_of(*rows_a), events_of(*rows_b), width)
    assert rows(trials) == want


def exact_time_window(ea, eb, width):
    """The greedy merge with every window difference taken as a Python
    int and compared with width exactly: (window, setting, outcome)
    events in, (setting_a, setting_b, a, b) trials out."""
    ea = sorted(ea, key=lambda e: e[0])
    eb = sorted(eb, key=lambda e: e[0])
    keyed, j, matched_b = [], 0, [False] * len(eb)
    for wa, sa, oa in ea:
        while j < len(eb) and wa - eb[j][0] >= width:
            j += 1
        if j < len(eb) and abs(eb[j][0] - wa) < width:
            wb, sb, ob = eb[j]
            matched_b[j] = True
            j += 1
            keyed.append((min(wa, wb), 0, (sa, sb, oa, ob)))
        else:
            keyed.append((wa, 0, (sa, UNPAIRED_SETTING, oa, NO_COUNT)))
    for k, (wb, sb, ob) in enumerate(eb):
        if not matched_b[k]:
            keyed.append((wb, 1, (UNPAIRED_SETTING, sb, NO_COUNT, ob)))
    keyed.sort(key=lambda kt: (kt[0], kt[1]))
    return [t for _, _, t in keyed]


INT64 = np.iinfo(np.int64)
# anywhere in int64, and tight clusters at both ends and around zero
int64_windows = st.one_of(st.integers(INT64.min, INT64.max),
                          st.integers(INT64.min, INT64.min + 3),
                          st.integers(-3, 3),
                          st.integers(INT64.max - 3, INT64.max))
int64_event_rows = st.lists(st.tuples(int64_windows, st.integers(0, 1),
                                      st.sampled_from((1, -1, 0))),
                            max_size=20)


@given(int64_event_rows, int64_event_rows,
       st.sampled_from((0.25, 1, 2, 2.5, 1e30, 2.0 ** 63)))
def test_window_matching_is_exact_at_every_int64_window(rows_a, rows_b, width):
    want = exact_time_window(rows_a, rows_b, width)
    trials = pair_time_window(events_of(*rows_a), events_of(*rows_b), width)
    assert rows(trials) == want


tied_cells = st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1, 0))),
                     max_size=40)


@given(tied_cells, tied_cells, st.sampled_from((0.25, 0.5, 1)))
def test_window_rank_matching_under_heavy_ties(cells_a, cells_b, width):
    # each event's setting is its place in its unsorted stream, so a
    # sort that reordered equal windows would show in the trials
    rows_a = [(w, i, o) for i, (w, o) in enumerate(cells_a)]
    rows_b = [(w, i, o) for i, (w, o) in enumerate(cells_b)]
    want = reference_time_window(rows_a, rows_b, width)
    trials = pair_time_window(events_of(*rows_a), events_of(*rows_b), width)
    assert rows(trials) == want


@given(event_rows, event_rows, st.sampled_from((1, 2)))
def test_trial_rows_count_like_the_columns(rows_a, rows_b, width):
    # perfbench's window counter walks a pair_time_window result row by
    # row; these are its counts, and they must equal the column sums
    trials = pair_time_window(events_of(*rows_a), events_of(*rows_b), width)
    n = coincident = unmatched_a = unmatched_b = 0
    for t in trials:
        n += 1
        coincident += t.coincident
        unmatched_a += t.setting_b == UNPAIRED_SETTING
        unmatched_b += t.setting_a == UNPAIRED_SETTING
    assert n == len(trials)
    assert coincident == int(trials.coincident.sum())
    assert unmatched_a == int((trials.setting_b == UNPAIRED_SETTING).sum())
    assert unmatched_b == int((trials.setting_a == UNPAIRED_SETTING).sum())


@given(event_rows, event_rows, st.sampled_from((2, 3, 7.25)), st.integers(1, 4))
def test_window_matching_across_greedy_chunks(rows_a, rows_b, width, chunk):
    # a small chunk puts chunk boundaries inside short streams
    want = reference_time_window(rows_a, rows_b, width)
    with mock.patch.object(pairing, "GREEDY_CHUNK", chunk):
        trials = pair_time_window(events_of(*rows_a), events_of(*rows_b), width)
    assert rows(trials) == want


def random_streams(n, seed):
    """Two streams of n events each, windows in random order with
    repeats, so that the greedy loop carries its position across many
    chunks."""
    rng = np.random.default_rng(seed)
    return [list(zip(rng.permutation(np.cumsum(rng.integers(0, 4, n))).tolist(),
                     rng.integers(0, 2, n).tolist(),
                     rng.choice([1, -1, 0], n).tolist())) for _ in "ab"]


@pytest.mark.parametrize("width", [2, 7.25])
def test_window_matching_equals_the_record_merge_past_many_chunks(width):
    rows_a, rows_b = random_streams(40_000, 11)
    assert 40_000 > 4 * pairing.GREEDY_CHUNK
    want = reference_time_window(rows_a, rows_b, width)
    trials = pair_time_window(events_of(*rows_a), events_of(*rows_b), width)
    assert rows(trials) == want


@pytest.mark.parametrize("width", [1, 2])
def test_window_matching_peak_memory_per_event(width):
    # perfbench's pipeline streams at 2e4 emissions: side A in window
    # order, side B jittered out of it; the trials alone take 18 bytes
    # a row, and every copy of a column would add 8 to 25 bytes an event
    rng = np.random.default_rng(3)
    n = 22_000
    window = np.cumsum(rng.integers(1, 4, n))
    keep_a, keep_b = rng.random(n) >= 0.08, rng.random(n) >= 0.12
    ea = Events(window[keep_a], rng.integers(0, 2, n)[keep_a],
                rng.choice([1, -1], n)[keep_a])
    eb = Events((window + rng.integers(-1, 2, n))[keep_b],
                rng.integers(0, 2, n)[keep_b], rng.choice([1, -1], n)[keep_b])
    events = len(ea) + len(eb)
    assert events > 2 * 19_000
    assert peak_bytes_per_item(lambda: pair_time_window(ea, eb, width),
                               events) < 64


@given(event_rows, event_rows, st.sampled_from((1, 2, 7.25)))
def test_pair_counting_unmatched_counts_the_lone_events(rows_a, rows_b, width):
    ea, eb = events_of(*rows_a), events_of(*rows_b)
    trials, unmatched_a, unmatched_b = pair_counting_unmatched(
        lambda x, y: pair_time_window(x, y, width), ea, eb)
    assert rows(trials) == rows(pair_time_window(ea, eb, width))
    # every event lands in one trial, a lone one beside an absent partner
    assert unmatched_a == int((trials.setting_b == UNPAIRED_SETTING).sum())
    assert unmatched_b == int((trials.setting_a == UNPAIRED_SETTING).sum())


def test_pair_counting_unmatched_under_index_pairings():
    # each event's setting is its index, so the trials name their events
    ea, eb = label_by_index(5), label_by_index(3)
    trials, unmatched_a, unmatched_b = pair_counting_unmatched(
        lambda x, y: pair_systematic(x, y, 2), ea, eb)
    assert rows(trials) == [(0, 1, 1, 1), (1, 2, 1, 1)]
    assert (unmatched_a, unmatched_b) == (3, 1)
    trials, unmatched_a, unmatched_b = pair_counting_unmatched(
        lambda x, y: pair_random(x, y, 4, RngStream(4).generator()), ea, eb)
    assert rows(trials) == rows(pair_random(ea, eb, 4, RngStream(4).generator()))
    assert unmatched_a == 5 - len(set(trials.setting_a.tolist()))
    assert unmatched_b == 3 - len(set(trials.setting_b.tolist()))


def test_window_validation():
    with pytest.raises(ValueError):
        pair_time_window(events_of(), events_of(), 0.0)


# ---------------------------------------------------------------------------
# covariance

def test_covariance_is_population_form():
    trials = trials_of((0, 0, 1, 1), (0, 0, -1, -1))
    assert covariance(trials) == 1.0  # ddof=0: no n/(n-1) inflation


def test_covariance_drops_no_counts_by_default():
    trials = trials_of((0, 0, 1, 1), (0, 0, -1, -1), (0, 0, 0, 1))
    assert covariance(trials) == 1.0
    assert covariance(trials, coincident_only=False) != 1.0


def test_covariance_needs_two_usable_trials():
    with pytest.raises(ValueError):
        covariance(trials_of((0, 0, 1, 1)))
    with pytest.raises(ValueError):
        covariance(trials_of((0, 0, 0, 1), (0, 0, 0, -1)))


def covariance_float64(trials, coincident_only=True):
    """covariance through float64 copies of the outcome columns: the
    oracle of its int8 means."""
    keep = trials.coincident if coincident_only else slice(None)
    a, b = trials.a[keep].astype(float), trials.b[keep].astype(float)
    if len(a) < 2:
        raise ValueError("need at least 2 usable trials for a covariance")
    return float(np.mean(a * b) - a.mean() * b.mean())


def outcome_column(r, n, p_zero, p_plus):
    return np.where(r.random(n) < p_zero, 0,
                    np.where(r.random(n) < p_plus, 1, -1)).astype(np.int8)


@given(seed=st.integers(0, 2**32),
       n=st.one_of(st.integers(0, 6), st.integers(8000, 40_000)),
       p_zero=st.sampled_from([0.0, 0.3, 0.99]), p_plus=st.floats(0.0, 1.0),
       coincident_only=st.booleans())
def test_covariance_equals_the_float64_body(seed, n, p_zero, p_plus,
                                            coincident_only):
    r = np.random.default_rng(seed)
    a, b = (outcome_column(r, n, p_zero, p_plus) for _ in range(2))
    trials = Trials(np.zeros(n, np.int64), np.zeros(n, np.int64), a, b)
    try:
        want = covariance_float64(trials, coincident_only)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            covariance(trials, coincident_only)
        return
    assert covariance(trials, coincident_only) == want
