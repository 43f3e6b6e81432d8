import csv
import io
import re
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bell_lab import core
from bell_lab.core import (EVENT_FIELDS, OUTCOMES, TRIAL_FIELDS, CountTable,
                           Events, PairedTrial, RngStream, Trials, check_outcomes,
                           outcome_counts, read_events, read_trials, tabulate,
                           write_events, write_trials)
from peak_memory import peak_bytes_per_item


INT64 = np.iinfo(np.int64)


def trials_of(*rows):
    """Trials from (setting_a, setting_b, a, b) rows."""
    return Trials(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def columns(store):
    """A column store's columns as lists, in field order."""
    return [getattr(store, f.name).tolist() for f in fields(store)]


def test_check_outcomes_accepts_only_ternary_integers():
    for bad in ([0, 1, 2], [-2], np.array([1, 3], dtype=np.int8),
                np.array([0.5]), np.array([1.0])):
        with pytest.raises(ValueError):
            check_outcomes(bad)
    with pytest.raises(ValueError, match="got 2"):
        check_outcomes(np.array([1, 0, 2, -1]))
    ok = np.array([1, -1, 0], dtype=np.int8)
    assert check_outcomes(ok) is ok  # int8 passes through uncopied
    got = check_outcomes([1, -1, 0])
    assert got.dtype == np.int8 and got.tolist() == [1, -1, 0]
    assert check_outcomes([]).size == 0


def test_column_stores_yield_row_values():
    events = Events([4, 7], [0, 1], [1, 0])
    assert len(events) == 2
    assert columns(events) == [[4, 7], [0, 1], [1, 0]]
    assert (events.window.dtype, events.outcome.dtype) == (np.int64, np.int8)
    trials = trials_of((0, 1, 1, -1), (1, 0, 0, 1))
    assert len(trials) == 2
    assert columns(trials) == [[0, 1], [1, 0], [1, 0], [-1, 1]]
    assert trials.coincident.tolist() == [True, False]


def test_column_stores_validate():
    with pytest.raises(ValueError):
        Events([0, 1], [0, 0], [1, 3])
    with pytest.raises(ValueError):
        Events([0, 1], [0], [1, 1])
    with pytest.raises(ValueError):
        Trials([0], [0], [1], [-2])
    with pytest.raises(ValueError):
        Trials([0, 0], [0, 0], [1, 1], [1])


def test_paired_trial_coincident_flag():
    assert PairedTrial(0, 0, 1, -1).coincident
    assert not PairedTrial(0, 0, 0, -1).coincident
    assert not PairedTrial(0, 0, 1, 0).coincident


def test_rng_stream_reproducible():
    s = RngStream(42, (3,))
    x = s.generator().random(10)
    y = s.generator().random(10)
    assert np.array_equal(x, y)


def test_rng_stream_distinct_streams_differ():
    a = RngStream(42, (0,)).generator().random(10)
    b = RngStream(42, (1,)).generator().random(10)
    c = RngStream(43, (0,)).generator().random(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_child_extends_key():
    s = RngStream(7, (1,))
    assert s.child(4).stream == (1, 4)
    assert np.array_equal(s.child(4).generator().random(5),
                          RngStream(7, (1, 4)).generator().random(5))


# seeds and key elements of one to seven uint32 words: the child seeds
# hash a seed of more than 4 words, and key elements of several, as numpy does
@given(seed=st.integers(0, 2**200), key=st.lists(st.integers(0, 2**64),
                                                 max_size=3),
       count=st.one_of(st.integers(0, 5), st.integers(250, 300)))
def test_child_generators_draw_what_each_child_draws(seed, key, count):
    s = RngStream(seed, tuple(key))
    spawned = s.child_generators(count)
    assert iter(spawned) is spawned  # made one at a time
    assert [g.integers(0, 2**63, 4).tolist() for g in spawned] == [
        s.child(i).generator().integers(0, 2**63, 4).tolist()
        for i in range(count)]


def test_child_generators_of_zero_runs_is_empty():
    assert list(RngStream(3, (1, 2)).child_generators(0)) == []
    with pytest.raises(ValueError, match="count must be >= 0"):
        RngStream(3).child_generators(-2)


def test_child_generators_refuse_an_index_past_one_word_at_once():
    # child i's index is one uint32 word; the refusal comes before any
    # seed array of that size is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("count must be <= 2**32")):
            RngStream(3, (1,)).child_generators(2**32 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rng_stream_accepts_int_key():
    assert RngStream(1, 5).stream == (5,)


def test_tabulate_empty():
    table = tabulate(trials_of(), settings_a=(0,), settings_b=(0,))
    assert (table.labels_a, table.labels_b) == ((0,), (0,))
    assert table.counts.shape == (1, 1, 3, 3) and not table.counts.any()


def test_tabulate_constant_input():
    trials = trials_of(*[(1, 1, 1, -1)] * 3)
    table = tabulate(trials)
    assert (table.labels_a, table.labels_b) == ((1,), (1,))
    assert table.counts.dtype == np.int64
    assert table.at(1, 1)[OUTCOMES.index(1), OUTCOMES.index(-1)] == 3
    assert table.counts.sum() == 3
    assert not table.at(0, 1).any() and table.at(0, 1).shape == (3, 3)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                          st.sampled_from(OUTCOMES), st.sampled_from(OUTCOMES)),
                max_size=60))
def test_tabulate_conserves_count(rows):
    trials = trials_of(*rows)
    table = tabulate(trials, settings_a=(0, 1), settings_b=(0, 1))
    assert table.counts.sum() == len(trials)
    # the full label grid is always present
    assert table.counts.shape == (2, 2, 3, 3)
    for (x, y, a, b) in set(rows):
        assert table.at(x, y)[OUTCOMES.index(a), OUTCOMES.index(b)] == rows.count(
            (x, y, a, b))


@given(st.lists(st.tuples(st.sampled_from(OUTCOMES), st.sampled_from(OUTCOMES)),
                max_size=60))
def test_outcome_counts_are_one_setting_pairs_cells(pairs):
    a, b = np.array(pairs, np.int64).reshape(-1, 2).T
    zeros = np.zeros(len(pairs), np.int64)
    counts = outcome_counts(a, b)
    assert counts.tolist() == [[pairs.count((x, y)) for y in OUTCOMES]
                               for x in OUTCOMES]
    assert np.array_equal(counts, tabulate(Trials(zeros, zeros, a, b),
                                           (0,), (0,)).at(0, 0))


def test_outcome_counts_refuse_a_bad_outcome():
    with pytest.raises(ValueError, match=re.escape(f"{OUTCOMES}, got 2")):
        outcome_counts([1, 2], [0, 0])
    with pytest.raises(ValueError, match="differ in length"):
        outcome_counts([1, -1], [0])


def test_tabulate_rejects_setting_outside_grid():
    with pytest.raises(ValueError):
        tabulate(trials_of((5, 0, 1, 1)), settings_a=(0,), settings_b=(0,))
    on_grid = [(0, 2, 1, 1), (2, 0, -1, 0)]
    # below, between and above the grid (0, 2), on either side: the
    # first trial off the grid is named
    for bad in (-1, 1, 3):
        for pair in ((bad, 0), (2, bad)):
            rows = on_grid + [(*pair, 1, -1), (bad, bad, 0, 0)]
            with pytest.raises(ValueError, match=re.escape(
                    f"trial setting pair {pair} outside the declared grid")):
                tabulate(trials_of(*rows), (0, 2), (2, 0))
    with pytest.raises(ValueError, match=re.escape("pair (0, 2) outside")):
        tabulate(trials_of(*on_grid), (), (0, 2))
    table = tabulate(trials_of(*on_grid), (0, 2), (0, 2))
    assert table.counts.sum() == 2 and table.counts[0, 1, 0, 0] == 1


def tabulate_oracle(trials, settings_a=None, settings_b=None):
    """tabulate as it was before the bincount grid: every grid from
    np.unique, every position from searchsorted."""
    sa, sb = trials.setting_a, trials.setting_b
    grid_a = np.unique(sa if settings_a is None else np.array(settings_a, np.int64))
    grid_b = np.unique(sb if settings_b is None else np.array(settings_b, np.int64))
    pos_a, pos_b = np.searchsorted(grid_a, sa), np.searchsorted(grid_b, sb)
    inside = ((grid_a.take(pos_a, mode="clip") == sa)
              & (grid_b.take(pos_b, mode="clip") == sb)
              if grid_a.size and grid_b.size else np.zeros(len(sa), bool))
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(f"trial setting pair {(int(sa[k]), int(sb[k]))} "
                         "outside the declared grid")
    cell = (9 * (pos_a * len(grid_b) + pos_b) + 3 * ((trials.a + 2) % 3)
            + (trials.b + 2) % 3)
    counts = np.bincount(cell, minlength=9 * len(grid_a) * len(grid_b))
    return CountTable(tuple(grid_a.tolist()), tuple(grid_b.tolist()),
                      counts.reshape(len(grid_a), len(grid_b), 3, 3))


def table_or_error(tab, *args):
    try:
        table = tab(*args)
    except ValueError as err:
        return str(err)
    return table.labels_a, table.labels_b, table.counts.tolist()


# narrow spans, spans at the bincount limit, and labels near +-2**62
# and both ends of int64, whose spans are far wider
labels = st.one_of(st.integers(-3, 3),
                   st.sampled_from((core.LABEL_SPAN_LIMIT - 1, core.LABEL_SPAN_LIMIT)),
                   st.integers(2**62 - 2, 2**62 + 2),
                   st.integers(-2**62 - 2, -2**62 + 2),
                   st.sampled_from((INT64.min, INT64.min + 1, INT64.max)))
grids = st.none() | st.lists(labels, max_size=4)


@given(st.lists(st.tuples(labels, labels, st.sampled_from(OUTCOMES),
                          st.sampled_from(OUTCOMES)), max_size=30),
       grids, grids)
def test_tabulate_equals_the_sort_and_search_body(rows, grid_a, grid_b):
    trials = trials_of(*rows)
    assert (table_or_error(tabulate, trials, grid_a, grid_b)
            == table_or_error(tabulate_oracle, trials, grid_a, grid_b))


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_outcome_cells_of_all_nine_pairs(dtype):
    pairs = [(x, y) for x in OUTCOMES for y in OUTCOMES]
    # pair k appears k + 1 times, so a swapped cell shows in the counts
    a, b = np.array([p for k, p in enumerate(pairs) for _ in range(k + 1)],
                    dtype).T
    cells = core._outcome_cell(a, b)
    assert cells.tolist() == [3 * OUTCOMES.index(x) + OUTCOMES.index(y)
                              for x, y in zip(a.tolist(), b.tolist())]
    assert outcome_counts(a, b).ravel().tolist() == list(range(1, 10))


def test_count_table_reads_counts_at_labels_over_runs():
    counts = np.arange(5 * 2 * 1 * 9).reshape(5, 2, 1, 3, 3)
    table = CountTable((0, 3), (2,), counts)
    assert np.array_equal(table.at(3, 2), counts[:, 1, 0])
    # a label the table lacks reads as an empty group, on every run
    assert table.at(1, 2).shape == (5, 3, 3) and not table.at(1, 2).any()
    with pytest.raises(ValueError, match="do not end in"):
        CountTable((0, 3), (2, 1), counts)


def test_event_csv_round_trip(tmp_path):
    events = Events(np.arange(25), np.arange(25) % 2,
                    np.resize([1, -1, 0], 25))
    path = tmp_path / "events.csv"
    write_events(path, events)
    assert columns(read_events(path)) == columns(events)


def test_trial_csv_round_trip(tmp_path):
    trials = trials_of(*((i % 2, (i + 1) % 2, (1, -1, 0)[i % 3], (0, 1, -1)[i % 3])
                         for i in range(25)))
    path = tmp_path / "trials.csv"
    write_trials(path, trials)
    assert columns(read_trials(path)) == columns(trials)
    assert path.read_bytes().startswith(b"setting_a,setting_b,a,b\r\n0,1,1,0\r\n")


def test_csv_columns_are_found_by_header_name(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("outcome,extra,window_index,setting_label\n"
                    "-1,x,5,1\n\n1,y,6,0\n")
    assert columns(read_events(path)) == [[5, 6], [1, 0], [-1, 1]]
    path.write_text("window_index,setting_label,outcome\n5,1\n")
    with pytest.raises(ValueError):
        read_events(path)


def test_read_columns_are_separate_arrays(tmp_path):
    # an int8 outcome column must not keep the file's int64 block alive
    path = tmp_path / "events.csv"
    write_events(path, Events([5, 6, 7], [1, 0, 1], [-1, 1, 0]))
    read = core.read_columns(path, EVENT_FIELDS)
    assert [c.tolist() for c in read] == [[5, 6, 7], [1, 0, 1], [-1, 1, 0]]
    assert all(c.base is None and c.flags.c_contiguous for c in read)
    # the stores' readers cast each outcome column to int8 off the block
    trials = tmp_path / "trials.csv"
    write_trials(trials, Trials([0, 1], [1, 0], [1, 0], [-1, -1]))
    for store in (read_events(path), read_trials(trials)):
        for f in fields(store):
            c = getattr(store, f.name)
            assert c.base is None and c.flags.c_contiguous, f.name
            assert c.dtype == (np.int8 if f.name in store.OUTCOME_COLUMNS
                               else np.int64), f.name
    assert [c.dtype for c in core.read_columns(path, EVENT_FIELDS, ("outcome",))
            ] == [np.int64, np.int64, np.int8]


def test_read_trials_peak_memory_per_row(tmp_path):
    # the parsed int64 block (32 bytes a row), the two int64 setting
    # columns (16) and the two int8 outcome columns (2): 50 bytes; an
    # int64 copy of each outcome column on the way takes 64
    n = 100_000
    r = np.random.default_rng(2)
    path = tmp_path / "trials.csv"
    write_trials(path, Trials(r.integers(0, 2, n), r.integers(0, 2, n),
                              r.integers(-1, 2, n), r.integers(-1, 2, n)))
    assert peak_bytes_per_item(lambda: read_trials(path), n) <= 56


EVENT_FILES = {  # the same two events, in each form the reader accepts
    "lf": "window_index,setting_label,outcome\n5,1,-1\n6,0,1\n",
    "crlf": "window_index,setting_label,outcome\r\n5,1,-1\r\n6,0,1\r\n",
    "blank-lines": ("window_index,setting_label,outcome\r\n\r\n5,1,-1\r\n"
                    "\r\n\r\n6,0,1\r\n\r\n"),
    "quoted": 'window_index,setting_label,outcome\r\n"5","1",-1\r\n6,0,"1"\r\n',
    "no-last-line-end": "window_index,setting_label,outcome\n5,1,-1\n6,0,1",
    "long-row": "window_index,setting_label,outcome\n5,1,-1,7\n6,0,1\n",
    "bom": "\ufeffwindow_index,setting_label,outcome\r\n5,1,-1\r\n6,0,1\r\n",
    "repeated-extra-column": ("window_index,x,setting_label,x,outcome\n"
                              "5,,1,,-1\n6,,0,,1\n"),
    "padded": "window_index,setting_label,outcome\n 5 , 1 ,-1\n6, 0 , 1 \n",
    # data starts after the header's second physical line
    "two-line-header": ('window_index,"note\r\n1,2,3",setting_label,outcome\r\n'
                        "5,x,1,-1\r\n6,y,0,1\r\n"),
}


@pytest.mark.parametrize("case", sorted(EVENT_FILES))
def test_event_csv_forms_read_the_same_columns(tmp_path, case):
    path = tmp_path / "events.csv"
    path.write_bytes(EVENT_FILES[case].encode())
    assert columns(read_events(path)) == [[5, 6], [1, 0], [-1, 1]]


@pytest.mark.parametrize("header", ["window_index,setting_label,outcome,outcome",
                                    "setting_label,window_index,outcome,setting_label"])
def test_reader_refuses_a_repeated_needed_column(tmp_path, header):
    path = tmp_path / "events.csv"
    path.write_text(header + "\n5,1,-1,1\n")
    with pytest.raises(ValueError, match="repeated column '(outcome|setting_label)'"):
        read_events(path)


HEADER = "window_index,setting_label,outcome\n"
BAD_LINES = {  # file text -> the reader's error, which names the file line
    HEADER + "0,0,1\n\n1,0,1\n2,x,1\n":
        "could not convert string 'x' to int64 at line 5, column 2.",
    HEADER + "0,0,1\n\n\n1,0\n":
        "invalid column index 2 at line 5 with 2 columns",
    "\ufeff" + HEADER.replace("\n", "\r\n") + "\r\n1,0,x\r\n":
        "could not convert string 'x' to int64 at line 3, column 3.",
    'window_index,"a\nb",setting_label,outcome\n0,,0,x\n':
        "could not convert string 'x' to int64 at line 3, column 4.",
    "outcome,window_index,setting_label\n" + "1,0,0\n" * 2500 + "\n-1,7,0.5\n":
        "could not convert string '0.5' to int64 at line 2503, column 3.",
}


@pytest.mark.parametrize("text", sorted(BAD_LINES), ids=range(len(BAD_LINES)))
def test_reader_errors_name_the_file_line(tmp_path, text):
    path = tmp_path / "events.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as err:
        read_events(path)
    assert str(err.value) == BAD_LINES[text]


def csv_writer_bytes(header, store) -> bytes:
    """What write_rows, that is csv.writer, makes of a column store."""
    buf = io.StringIO(newline="")
    out = csv.writer(buf)
    out.writerow(header)
    out.writerows(zip(*columns(store)))
    return buf.getvalue().encode()


def assert_written_like_csv_writer(events, trials):
    with tempfile.TemporaryDirectory() as tmp:
        for write, read, header, store in (
                (write_events, read_events, EVENT_FIELDS, events),
                (write_trials, read_trials, TRIAL_FIELDS, trials)):
            path = Path(tmp) / "out.csv"
            write(path, store)
            assert path.read_bytes() == csv_writer_bytes(header, store)
            back = read(path)
            assert columns(back) == columns(store)
            assert all(c.flags.c_contiguous for c in back._columns())


int64s = st.one_of(st.sampled_from([INT64.min, INT64.max, -1, 0]),
                   st.integers(INT64.min, INT64.max))


@given(st.lists(st.tuples(int64s, int64s, st.sampled_from(OUTCOMES),
                          st.sampled_from(OUTCOMES)), max_size=12),
       st.integers(1, 5))
def test_column_writers_match_csv_writer(rows, chunk_rows):
    # a small chunk size puts chunk boundaries inside a short file
    block = np.array(rows, dtype=np.int64).reshape(-1, 4)
    with mock.patch.object(core, "WRITE_CHUNK_ROWS", chunk_rows):
        assert_written_like_csv_writer(Events(*block[:, [0, 1, 2]].T),
                                       Trials(*block.T))


def test_column_writers_match_csv_writer_past_one_chunk():
    n = core.WRITE_CHUNK_ROWS + 2
    rng = np.random.default_rng(1)
    big = rng.integers(INT64.min, INT64.max, size=(2, n), endpoint=True)
    big[:, :2] = [[INT64.min, INT64.max], [INT64.max, INT64.min]]
    a, b = rng.integers(-1, 2, size=(2, n))
    assert_written_like_csv_writer(Events(big[0], big[1], a),
                                   Trials(big[0], big[1], a, b))


def test_column_writers_write_the_widest_rows_past_one_chunk():
    # every label cell int64 min or max and every outcome -1: the longest
    # cells there are, in rows on both sides of a chunk boundary
    n = core.WRITE_CHUNK_ROWS + 3
    labels = np.where(np.arange(2 * n).reshape(2, n) % 3, INT64.min, INT64.max)
    a = np.full(n, -1)
    assert_written_like_csv_writer(Events(labels[0], labels[1], a),
                                   Trials(labels[0], labels[1], a, a))


def test_column_writers_count_digits_at_every_power_of_ten():
    # 10**k - 1 and 10**k differ in digit count, on both signs
    powers = [10**k for k in range(19)]
    cells = np.array([0, INT64.min, INT64.max]
                     + [v for p in powers for v in (p - 1, p, 1 - p, -p)])
    n = len(cells) // 2 * 2
    a = np.resize([1, -1, 0], n // 2)
    assert_written_like_csv_writer(Events(cells[:n:2], cells[1:n:2], a),
                                   Trials(cells[:n:2], cells[1:n:2], a, a))
