"""Turning two local event streams into paired trials.

The same raw streams support many different pairings, and the resulting
statistics depend on the choice.  Three schemes are provided: systematic
offset pairing, random index pairing, and greedy time-window matching of
the kind coincidence circuits implement.
"""

from __future__ import annotations

import math

import numpy as np

from .core import NO_COUNT, Events, Trials

UNPAIRED_SETTING = -1  # setting label recorded for an absent partner


def pair_systematic(events_a: Events, events_b: Events, k: int) -> Trials:
    """Pair stream slot i on side A with slot i + k - 1 on side B.

    k = 1 is the in-step pairing; larger k slides side B back by k - 1
    slots.  The output length is min(len(a), len(b) - k + 1), floored at
    zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = max(min(len(events_a), len(events_b) - (k - 1)), 0)
    b = slice(k - 1, k - 1 + n)
    return Trials(events_a.setting[:n], events_b.setting[b],
                  events_a.outcome[:n], events_b.outcome[b])


def pair_random(events_a: Events, events_b: Events, m: int,
                rng: np.random.Generator) -> Trials:
    """Draw m index pairs (s, t) with replacement, uniform over s <= t.

    Both indices run over their own stream; the s <= t constraint keeps
    side B from being paired backwards in slot order.
    """
    na, nb = len(events_a), len(events_b)
    if na == 0 or nb == 0:
        raise ValueError("both streams must be non-empty")
    if m < 0:
        raise ValueError("m must be >= 0")
    ss = np.empty(m, dtype=np.int64)
    ts = np.empty(m, dtype=np.int64)
    have = 0
    while have < m:  # rejection keeps the law uniform on the constrained set
        draw = max(m - have, 16)
        s = rng.integers(0, na, size=draw)
        t = rng.integers(0, nb, size=draw)
        ok = s <= t
        take = min(int(ok.sum()), m - have)
        ss[have:have + take] = s[ok][:take]
        ts[have:have + take] = t[ok][:take]
        have += take
    return Trials(events_a.setting[ss], events_b.setting[ts],
                  events_a.outcome[ss], events_b.outcome[ts])


def _in_time_order(events: Events):
    """(window, setting, outcome) sorted by window, stably; the columns of
    a stream already in window order come back as they are, uncopied."""
    if (events.window[1:] >= events.window[:-1]).all():
        return events.window, events.setting, events.outcome
    order = np.argsort(events.window, kind="stable")
    return events.window[order], events.setting[order], events.outcome[order]


def _reach(wa: np.ndarray, wb: np.ndarray, c: int):
    """(lo, hi) per side-A window w: the sorted side-B windows in
    [w - c, w + c] are wb[lo:hi].  One uint64 key buffer, which wraps,
    holds either bound; past either end of int64, lo is 0 or hi len(wb)."""
    key = wa.view(np.uint64) - np.uint64(c)
    lo = np.searchsorted(wb, key.view(np.int64), "left")
    lo[wa < np.iinfo(np.int64).min + c] = 0
    key += np.uint64(2 * c % 2**64)
    hi = np.searchsorted(wb, key.view(np.int64), "right")
    hi[wa > np.iinfo(np.int64).max - c] = len(wb)
    return lo, hi


# side-A events at a time in the greedy loop; 16384 kept 1.6 MB of ints
GREEDY_CHUNK = 4096


def _take(column: np.ndarray, index: np.ndarray, absent: int) -> np.ndarray:
    """column[index], with absent where index is -1."""
    out = (column.take(index, mode="clip") if len(column)
           else np.empty(len(index), column.dtype))
    out[index < 0] = absent
    return out


def pair_time_window(events_a: Events, events_b: Events,
                     width: float) -> Trials:
    """Greedy coincidence matching on window indices.

    Events are taken in time order; each side-A event grabs the earliest
    unmatched side-B event with |w_a - w_b| < width.  Events left over
    on either side still produce a trial, with the absent partner
    recorded as outcome 0 under setting label -1.  Trials come out
    ordered by the window index of their earliest member, side A first
    on ties.  No stream in window order is copied, and each temporary
    goes after its last use.
    """
    if not 0 < width < math.inf:
        raise ValueError(f"width must be finite and > 0, got {width}")
    wa, sa, oa = _in_time_order(events_a)
    wb, sb, ob = _in_time_order(events_b)
    na, nb = len(wa), len(wb)
    # windows are integers: |w_a - w_b| < width is |w_a - w_b| <= c, and
    # no two windows lie further apart than the span of them all
    ends = [int(w[k]) for w in (wa, wb) if len(w) for k in (0, -1)]
    c = min(math.ceil(width) - 1, max(ends) - min(ends) if ends else 0)
    lo, hi = _reach(wa, wb, c)
    if c == 0:
        # equal windows only: the k-th side-A event of a window takes
        # the k-th side-B event of that window, if there is one
        partner = lo - np.searchsorted(wa, wa, "left") + np.arange(na)
        partner[partner >= hi] = -1
    else:
        # each side-A event takes the first side-B event of its range
        # that is not taken yet; every taken one lies before j
        partner, j = np.empty(na, np.int64), 0
        for start in range(0, na, GREEDY_CHUNK):
            end, chunk = start + GREEDY_CHUNK, []
            for first, stop in zip(lo[start:end].tolist(), hi[start:end].tolist()):
                if j < first:
                    j = first
                if j < stop:
                    chunk.append(j)
                    j += 1
                else:
                    chunk.append(-1)
            partner[start:end] = chunk
    del lo, hi
    taken = np.zeros(nb + 1, bool)  # the last slot catches index -1
    taken[partner] = True
    lone_b = np.flatnonzero(~taken[:nb])
    # rows: every side-A event with its partner, then the lone side-B
    # events, keyed by their earliest window; the sort is stable, so
    # side A comes first on ties
    key = np.minimum(_take(wb, partner, np.iinfo(np.int64).max), wa)
    order = np.argsort(np.concatenate([key, wb[lone_b]]), kind="stable")
    del key
    ib = np.concatenate([partner, lone_b]).take(order)
    del partner, lone_b
    order[order >= na] = -1  # each row's side-A index
    setting_a, a = _take(sa, order, UNPAIRED_SETTING), _take(oa, order, NO_COUNT)
    del order
    return Trials(setting_a, _take(sb, ib, UNPAIRED_SETTING), a,
                  _take(ob, ib, NO_COUNT))


def pair_counting_unmatched(pair, events_a: Events, events_b: Events):
    """(trials, unmatched_a, unmatched_b) for pair(events_a, events_b).

    An event is unmatched when no trial pairs it with a partner.  pair
    runs on event indices in place of setting labels, so that each trial
    names its events; the labels are looked up afterwards.
    """
    sides = (events_a, events_b)
    t = pair(*(Events(e.window, np.arange(len(e)), e.outcome) for e in sides))
    index = (t.setting_a, t.setting_b)
    paired = (index[0] >= 0) & (index[1] >= 0)
    labels = [_take(e.setting, i, UNPAIRED_SETTING) for e, i in zip(sides, index)]
    return (Trials(*labels, t.a, t.b),
            *(len(e) - np.count_nonzero(np.bincount(i[paired], minlength=len(e)))
              for e, i in zip(sides, index)))


def covariance(trials: Trials, coincident_only: bool = True) -> float:
    """Population covariance of the two outcome columns.

    coincident_only drops trials where either side shows 0.  Needs at
    least two usable trials.
    """
    keep = trials.coincident if coincident_only else slice(None)
    a, b = trials.a[keep], trials.b[keep]
    if len(a) < 2:
        raise ValueError("need at least 2 usable trials for a covariance")
    # float64 means straight from the int8 columns: every partial sum is
    # an integer below 2**53, so no summation order rounds one
    return float(np.mean(a * b, dtype=float) - a.mean() * b.mean())
