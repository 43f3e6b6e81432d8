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


# position in OUTCOMES of outcome v, looked up at index v + 1
_SLOT = np.array([OUTCOMES.index(v) for v in (-1, 0, 1)])


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


def tabulate(trials: Trials,
             settings_a: Sequence[int] | None = None,
             settings_b: Sequence[int] | None = None) -> CountTable:
    """The CountTable of trials over the observed (or supplied) setting
    labels, sorted; its counts sum to the number of trials."""
    sa, sb = trials.setting_a, trials.setting_b
    grid_a = np.unique(sa if settings_a is None else np.array(settings_a, np.int64))
    grid_b = np.unique(sb if settings_b is None else np.array(settings_b, np.int64))
    inside = np.isin(sa, grid_a) & np.isin(sb, grid_b)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(f"trial setting pair {(int(sa[k]), int(sb[k]))} "
                         "outside the declared grid")
    cell = ((np.searchsorted(grid_a, sa) * len(grid_b) + np.searchsorted(grid_b, sb))
            * 3 + _SLOT[trials.a + 1]) * 3 + _SLOT[trials.b + 1]
    counts = np.bincount(cell, minlength=9 * len(grid_a) * len(grid_b))
    return CountTable(tuple(grid_a.tolist()), tuple(grid_b.tolist()),
                      counts.reshape(len(grid_a), len(grid_b), 3, 3))


EVENT_FIELDS = ("window_index", "setting_label", "outcome")
TRIAL_FIELDS = ("setting_a", "setting_b", "a", "b")


def write_rows(path, header, rows) -> None:
    """Write a header line, then rows, as CSV with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# rows per %-format in _write_columns: formatting the whole file at once
# doubles simulate's peak memory at 1e6 rows and runs no faster
WRITE_CHUNK_ROWS = 65536


def _write_columns(path, header, store: _ColumnStore) -> None:
    """The same bytes as write_rows, formatted a chunk of rows at a time."""
    columns = store._columns()
    line = ",".join(["%d"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(store), WRITE_CHUNK_ROWS):
            chunk = np.column_stack([c[start:start + WRITE_CHUNK_ROWS]
                                     for c in columns])
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def _loadtxt(lines, usecols) -> np.ndarray:
    with warnings.catch_warnings():
        # a header-only file reads as empty columns
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2,
                          usecols=usecols, comments=None, quotechar='"')


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


def read_columns(path, header) -> list:
    """One int64 array per column named in header, found by name in the
    file's header line.  A UTF-8 BOM is skipped, LF and CRLF line ends
    both read, blank lines are skipped and a quoted integer reads as the
    integer; a missing or repeated column, a short row or a cell that is
    not an int64 is a ValueError, which names the file line of a bad row."""
    with open(path, encoding="utf-8-sig") as fh:
        names = next(csv.reader(fh), [])
        for name in header:
            if names.count(name) != 1:
                raise ValueError(f"{'repeated' if name in names else 'missing'} "
                                 f"column {name!r}")
        usecols = [names.index(name) for name in header]
        try:
            block = _loadtxt(fh, usecols)
        except ValueError:
            _raise_at_file_line(path, usecols)
            raise
    return list(block.T.copy())


def write_events(path, events: Events) -> None:
    _write_columns(path, EVENT_FIELDS, events)


def read_events(path) -> Events:
    return Events(*read_columns(path, EVENT_FIELDS))


def write_trials(path, trials: Trials) -> None:
    _write_columns(path, TRIAL_FIELDS, trials)


def read_trials(path) -> Trials:
    return Trials(*read_columns(path, TRIAL_FIELDS))
