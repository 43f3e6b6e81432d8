"""Shared vocabulary for the lab: ternary outcomes, the column stores of
station events and paired trials, reproducible random streams, and count
tables.

Outcomes are +1 and -1 for the two analyzer exits and 0 for "no count"
(undetected, or an unpaired partner slot).  Everything downstream speaks
this encoding.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple, Sequence

import numpy as np

PLUS = 1
MINUS = -1
NO_COUNT = 0
OUTCOMES = (PLUS, MINUS, NO_COUNT)


def plain(value):
    """A value of one table as a Python number, NaN (undefined) as None; a
    value over runs stays an array."""
    if np.ndim(value):
        return value
    value = value.item()
    return None if value != value else value


def plain_list(values) -> list:
    """The values of an array as Python numbers, NaN (undefined) as None."""
    return [None if v != v else v for v in np.asarray(values).tolist()]


def _integers(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got {arr.dtype}")
    return arr


def check_outcomes(values) -> np.ndarray:
    """Validate an integer array of outcomes; int8 input comes back uncopied."""
    arr = _integers(values, "outcomes")
    if arr.size and (arr.min() < MINUS or arr.max() > PLUS):
        bad = arr[(arr < MINUS) | (arr > PLUS)][0]
        raise ValueError(f"outcome must be one of {OUTCOMES}, got {int(bad)!r}")
    return arr.astype(np.int8, copy=False)


# only perfbench's _window_counts reads these rows; ROADMAP item 1 drops them
class PairedTrial(NamedTuple):
    setting_a: int
    setting_b: int
    a: int
    b: int

    @property
    def coincident(self) -> bool:
        """True when both sides actually fired."""
        return self.a != NO_COUNT and self.b != NO_COUNT


class _ColumnStore:
    """Equal-length numpy columns, one per dataclass field: validated
    outcomes as int8 in OUTCOME_COLUMNS, integer labels as int64 in the
    others."""

    OUTCOME_COLUMNS: tuple

    def __post_init__(self):
        for f in fields(self):
            values = getattr(self, f.name)
            column = (check_outcomes(values) if f.name in self.OUTCOME_COLUMNS
                      else _integers(values, f.name).astype(np.int64, copy=False))
            object.__setattr__(self, f.name, column)
        lengths = {len(c) for c in self._columns()}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")

    def _columns(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return len(self._columns()[0])


@dataclass(frozen=True, eq=False)
class Events(_ColumnStore):
    """One station's events in stream order."""

    OUTCOME_COLUMNS = ("outcome",)

    window: np.ndarray
    setting: np.ndarray
    outcome: np.ndarray


@dataclass(frozen=True, eq=False)
class Trials(_ColumnStore):
    """Paired trials: both sides' settings and outcomes."""

    OUTCOME_COLUMNS = ("a", "b")

    setting_a: np.ndarray
    setting_b: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def coincident(self) -> np.ndarray:
        """Mask of the trials where both sides actually fired."""
        return (self.a != NO_COUNT) & (self.b != NO_COUNT)

    def __iter__(self) -> Iterator[PairedTrial]:
        return map(PairedTrial, *(c.tolist() for c in self._columns()))


# numpy's SeedSequence hash, O'Neill's seed_seq_fe ("Developing a seed_seq
# Alternative", pcg-random.org, 2015), with the constants of numpy's
# bit_generator.pyx; every product wraps at 2**32, as uint32 arrays do
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 2**32


def _words(n: int) -> int:
    """How many uint32 words SeedSequence reads from the integer n."""
    return max(1, -(-n.bit_length() // 32))


def _hash(values: np.ndarray, const: int, mult: int) -> tuple:
    """One seed_seq_fe hash of uint32 values at hash constant const, and
    the constant after it."""
    out = values ^ np.uint32(const)
    const = const * mult % _WORD
    out *= np.uint32(const)
    out ^= out >> 16
    return out, const


class _PresetSeed(np.random.bit_generator.ISeedSequence):
    """A SeedSequence's PCG64 seed, computed ahead of its generator."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset seed gives only generate_state(4, np.uint64)")
        return self.state


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    (seed, stream) fully determines the sequence.  Distinct stream keys on
    the same seed give statistically independent generators, and child
    streams extend the key, so a campaign can hand every run its own
    stream without any shared mutable state.
    """

    seed: int
    stream: tuple = ()

    def __post_init__(self):
        key = (self.stream,) if isinstance(self.stream, int) else tuple(self.stream)
        object.__setattr__(self, "stream", tuple(int(k) for k in key))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.default_rng(seq)

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream + (int(index),))

    def child_generators(self, count: int) -> Iterator[np.random.Generator]:
        """child(i).generator() for i in range(count), bit for bit: every
        child's PCG64 seed is hashed at once, each generator made when
        iterated.  A child index is one uint32 word, so count <= 2**32."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count > _WORD:
            raise ValueError("count must be <= 2**32")
        return (np.random.Generator(np.random.PCG64(_PresetSeed(state)))
                for state in self._child_seeds(count))

    def _child_seeds(self, count: int) -> np.ndarray:
        """A (count, 4) array whose row i is generate_state(4, np.uint64) of
        SeedSequence(seed, spawn_key=stream + (i,)), the seed of child i."""
        pool = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream).pool
        # child i's entropy is the seed padded to 4 words, the key's words
        # and then the word i, so its pool is this pool mixed with i; each
        # word before i took four hashes of the constant
        n_words = max(_words(int(self.seed)), 4) + sum(map(_words, self.stream))
        const = _INIT_A * pow(_MULT_A, 4 * n_words, _WORD) % _WORD
        index = np.arange(count, dtype=np.uint32)
        mixed = []
        for word in pool.tolist():
            hashed, const = _hash(index, const, _MULT_A)
            # seed_seq_fe's mix of the pool word with the hashed index
            hashed *= np.uint32(_MIX_MULT_R)
            out = np.uint32(_MIX_MULT_L * word % _WORD) - hashed
            out ^= out >> 16
            mixed.append(out)
        # generate_state(4, np.uint64): eight words, cycling over the pool
        state, const = np.empty((count, 8), np.uint32), _INIT_B
        for j in range(8):
            state[:, j], const = _hash(mixed[j % 4], const, _MULT_B)
        return state.astype("<u4").view("<u8").astype(np.uint64)


# at 3a + b + 4: the flat cell of outcomes (a, b) in a table indexed as OUTCOMES
_CELL = np.array([4, 5, 3, 7, 8, 6, 1, 2, 0], np.int8)


def _outcome_cell(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The flat cell of each outcome pair in a table indexed as OUTCOMES."""
    return _CELL[3 * a + b + 4]


@dataclass(frozen=True, eq=False)
class CountTable:
    """Trial counts over (setting_a, setting_b, a, b), as one array.

    counts[..., i, j, k, l] counts the trials at settings labels_a[i] and
    labels_b[j] with outcomes OUTCOMES[k] and OUTCOMES[l]; any leading
    axes index runs, each run one table.
    """

    labels_a: tuple
    labels_b: tuple
    counts: np.ndarray

    def __post_init__(self):
        shape = (len(self.labels_a), len(self.labels_b), 3, 3)
        if self.counts.shape[-4:] != shape:
            raise ValueError(f"counts of shape {self.counts.shape} "
                             f"do not end in {shape}")

    def at(self, x: int, y: int) -> np.ndarray:
        """The (..., 3, 3) counts at setting pair (x, y), zero when the table
        lacks either label."""
        if x in self.labels_a and y in self.labels_b:
            i, j = self.labels_a.index(x), self.labels_b.index(y)
            return self.counts[..., i, j, :, :]
        return np.zeros(self.counts.shape[:-4] + (3, 3), np.int64)


# undeclared labels that span fewer values than this skip the sort
LABEL_SPAN_LIMIT = 2**16


def _grid(labels: np.ndarray, declared):
    """(grid, positions, inside): the sorted declared or else observed labels,
    where each label falls on them, and whether they hold it there."""
    lo = int(labels.min()) if labels.size else 0
    if declared is None and labels.size and int(labels.max()) - lo < LABEL_SPAN_LIMIT:
        seen = np.bincount(labels - lo) > 0
        return np.flatnonzero(seen) + lo, (np.cumsum(seen) - 1)[labels - lo], True
    grid = np.unique(labels if declared is None else np.array(declared, np.int64))
    positions = np.searchsorted(grid, labels)
    return grid, positions, (grid.take(positions, mode="clip") == labels if grid.size
                             else np.zeros(len(labels), bool))


def tabulate(trials: Trials,
             settings_a: Sequence[int] | None = None,
             settings_b: Sequence[int] | None = None) -> CountTable:
    """The CountTable of trials over the sorted setting labels supplied, or
    else observed (a narrow span by one bincount); its counts sum to len(trials)."""
    sa, sb = trials.setting_a, trials.setting_b
    grid_a, pos_a, inside_a = _grid(sa, settings_a)
    grid_b, pos_b, inside_b = _grid(sb, settings_b)
    inside = inside_a & inside_b
    if not np.all(inside):
        k = int(np.argmin(inside))
        raise ValueError(f"trial setting pair {(int(sa[k]), int(sb[k]))} "
                         "outside the declared grid")
    # each trial's flat cell, built in place on pos_a: every int64
    # temporary would hold one more column of 8 bytes a trial
    cell = pos_a
    cell *= len(grid_b)
    cell += pos_b
    cell *= 9
    cell += _outcome_cell(trials.a, trials.b)
    counts = np.bincount(cell, minlength=9 * len(grid_a) * len(grid_b))
    return CountTable(tuple(grid_a.tolist()), tuple(grid_b.tolist()),
                      counts.reshape(len(grid_a), len(grid_b), 3, 3))


def outcome_counts(a, b) -> np.ndarray:
    """The (3, 3) counts of the outcome pairs (a[k], b[k]), indexed as
    OUTCOMES: one setting pair's cells of a CountTable."""
    a, b = check_outcomes(a), check_outcomes(b)
    if len(a) != len(b):
        raise ValueError(f"outcome columns differ in length: {len(a)} != {len(b)}")
    return np.bincount(_outcome_cell(a, b), minlength=9).reshape(3, 3)


EVENT_FIELDS = ("window_index", "setting_label", "outcome")
TRIAL_FIELDS = ("setting_a", "setting_b", "a", "b")


def write_rows(path, header, rows) -> None:
    """Write a header line, then rows, as CSV with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# rows per formatted chunk in _write_columns: formatting the whole file
# at once raises simulate's peak RSS at 1e6 rows from 95 MB to 385 MB and
# runs slower, and chunks of 16384 rows wrote faster than 65536
WRITE_CHUNK_ROWS = 16384


def _csv_rows(block: np.ndarray) -> np.ndarray:
    """The CRLF-ended CSV rows of a non-empty 2-D int64 block, as uint8
    bytes; one compare per power of ten counts each cell's digits."""
    rows, columns = block.shape
    cells = block.ravel()
    negative = cells < 0
    # np.abs wraps int64 min to itself, which as uint64 is 2**63
    magnitude = np.abs(cells).view(np.uint64)
    # every cell is followed by a comma, the last of a row by CR LF
    separator = np.tile([1] * (columns - 1) + [2], rows)
    width = separator + negative + 1
    places = len(str(int(magnitude.max())))  # digits of the largest magnitude
    for k in range(1, places):
        width += magnitude >= 10**k
    end = np.cumsum(width)
    out = np.full(end[-1], ord(","), np.uint8)
    row_end = end[columns - 1::columns]
    out[row_end - 2] = ord("\r")
    out[row_end - 1] = ord("\n")
    signed = np.flatnonzero(negative)
    out[end[signed] - width[signed]] = ord("-")
    place = end - separator
    for _ in range(places - 1):  # last digit first, over cells with digits left
        place -= 1
        quotient = magnitude // np.uint64(10)
        out[place] = (magnitude - quotient * np.uint64(10)).astype(np.uint8) + ord("0")
        left = np.flatnonzero(quotient)
        place, magnitude = place[left], quotient[left]
    out[place - 1] = magnitude.astype(np.uint8) + ord("0")
    return out


def _write_columns(path, header, store: _ColumnStore) -> None:
    """The same bytes as write_rows, formatted a chunk of rows at a time."""
    columns = store._columns()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()  # the rows bypass the text layer, so the header goes first
        for start in range(0, len(store), WRITE_CHUNK_ROWS):
            block = np.column_stack(
                [c[start:start + WRITE_CHUNK_ROWS].astype(np.int64, copy=False)
                 for c in columns])
            fh.buffer.write(_csv_rows(block))


def _loadtxt(source, usecols, **kwargs) -> np.ndarray:
    with warnings.catch_warnings():
        # a header-only file reads as empty columns
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, delimiter=",", dtype=np.int64, ndmin=2,
                          usecols=usecols, comments=None, quotechar='"', **kwargs)


# lines per loadtxt call while _raise_at_file_line looks for the bad one
SCAN_CHUNK_LINES = 1024


def _raise_at_file_line(path, usecols) -> None:
    """Raise loadtxt's error for the first data line it refuses, naming the
    file line for loadtxt's row; lines are tried a chunk, then one, at a time."""
    with open(path, encoding="utf-8-sig") as fh:
        header = csv.reader(fh)
        next(header)
        first, lines = header.line_num + 1, fh.readlines()
    for start in range(0, len(lines), SCAN_CHUNK_LINES):
        try:
            _loadtxt(lines[start:start + SCAN_CHUNK_LINES], usecols)
        except ValueError:
            for number, line in enumerate(lines[start:], first + start):
                try:
                    _loadtxt([line], usecols)
                except ValueError as err:
                    message = re.sub(r"at row \d+", f"at line {number}", str(err))
                    raise ValueError(message) from None


def read_columns(path, header, outcomes=()) -> list:
    """One int64 array per column named in header, each its own copy, found
    by name in the file's header line.  A UTF-8 BOM is skipped, LF and CRLF
    line ends both read, blank lines are skipped and a quoted integer reads
    as the integer; a missing or repeated column, a short row or a cell that
    is not an int64 is a ValueError, which names the file line of a bad row.
    A column also named in outcomes is checked and cast straight to int8."""
    with open(path, encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        names = next(reader, [])
    for name in header:
        if names.count(name) != 1:
            raise ValueError(f"{'repeated' if name in names else 'missing'} "
                             f"column {name!r}")
    usecols = [names.index(name) for name in header]
    # given a path, loadtxt reads the file in large chunks, not line by line;
    # skiprows counts physical lines, as line_num does
    try:
        block = _loadtxt(path, usecols, skiprows=reader.line_num,
                         encoding="utf-8-sig")
    except ValueError:
        _raise_at_file_line(path, usecols)
        raise
    return [check_outcomes(column) if name in outcomes else column.copy()
            for name, column in zip(header, block.T)]


def write_events(path, events: Events) -> None:
    _write_columns(path, EVENT_FIELDS, events)


def read_events(path) -> Events:
    return Events(*read_columns(path, EVENT_FIELDS, Events.OUTCOME_COLUMNS))


def write_trials(path, trials: Trials) -> None:
    _write_columns(path, TRIAL_FIELDS, trials)


def read_trials(path) -> Trials:
    return Trials(*read_columns(path, TRIAL_FIELDS, Trials.OUTCOME_COLUMNS))
