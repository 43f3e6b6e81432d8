"""Shared vocabulary for the lab: ternary outcomes, station events and
paired trials with their column stores, reproducible random streams, and
count tables.

Outcomes are +1 and -1 for the two analyzer exits and 0 for "no count"
(undetected, or an unpaired partner slot).  Everything downstream speaks
this encoding.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

PLUS = 1
MINUS = -1
NO_COUNT = 0
OUTCOMES = (PLUS, MINUS, NO_COUNT)


def check_outcome(value) -> int:
    """Validate a single ternary outcome, returning it as a plain int."""
    v = int(value)
    if v not in OUTCOMES or v != value:
        raise ValueError(f"outcome must be one of {OUTCOMES}, got {value!r}")
    return v


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


@dataclass(frozen=True)
class StationEvent:
    """One local detection slot: time-window index, setting label, outcome."""

    window_index: int
    setting_label: int
    outcome: int

    def __post_init__(self):
        check_outcome(self.outcome)


@dataclass(frozen=True)
class PairedTrial:
    """A matched pair of station events, one from each side."""

    setting_a: int
    setting_b: int
    a: int
    b: int

    def __post_init__(self):
        check_outcome(self.a)
        check_outcome(self.b)

    @property
    def coincident(self) -> bool:
        """True when both sides actually fired."""
        return self.a != NO_COUNT and self.b != NO_COUNT


class _ColumnStore:
    """Equal-length numpy columns, one per dataclass field.

    Columns named in OUTCOME_COLUMNS hold validated outcomes as int8, the
    others integer labels as int64.  Row i is ROW built from the i-th
    entry of every column, in field order.
    """

    ROW: type
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

    def __getitem__(self, i: int):
        return self.ROW(*(int(c[i]) for c in self._columns()))

    def __iter__(self) -> Iterator:
        return map(self.ROW, *(c.tolist() for c in self._columns()))


@dataclass(frozen=True, eq=False)
class Events(_ColumnStore):
    """One station's events in stream order; row i is StationEvent i."""

    ROW = StationEvent
    OUTCOME_COLUMNS = ("outcome",)

    window: np.ndarray
    setting: np.ndarray
    outcome: np.ndarray


@dataclass(frozen=True, eq=False)
class Trials(_ColumnStore):
    """Paired trials; row i is PairedTrial i."""

    ROW = PairedTrial
    OUTCOME_COLUMNS = ("a", "b")

    setting_a: np.ndarray
    setting_b: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def coincident(self) -> np.ndarray:
        """Mask of the trials where both sides actually fired."""
        return (self.a != NO_COUNT) & (self.b != NO_COUNT)


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


def table_cells(settings_a: Sequence[int], settings_b: Sequence[int]) -> list:
    """Keys (setting_a, setting_b, a, b) of the count table over two setting
    grids, in table order: settings as given, outcomes in OUTCOMES order."""
    return list(itertools.product(settings_a, settings_b, OUTCOMES, OUTCOMES))


def tabulate(trials: Trials,
             settings_a: Sequence[int] | None = None,
             settings_b: Sequence[int] | None = None) -> dict:
    """Count table over (setting_a, setting_b, a, b).

    The key grid is the cross product of observed (or supplied) setting
    labels, sorted, with the nine outcome pairs; cells never seen count
    as zero, so every admissible key is present and the values sum to
    the number of trials.
    """
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
    return dict(zip(table_cells(grid_a.tolist(), grid_b.tolist()), counts.tolist()))


EVENT_FIELDS = ("window_index", "setting_label", "outcome")
TRIAL_FIELDS = ("setting_a", "setting_b", "a", "b")


def write_rows(path, header, rows) -> None:
    """Write a header line, then rows, as CSV with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_columns(path, header, store: _ColumnStore) -> None:
    write_rows(path, header, zip(*(c.tolist() for c in store._columns())))


def read_columns(path, header) -> list:
    """One int64 array per column named in header; blank lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        where = {name: i for i, name in enumerate(next(reader, []))}
        rows = [row for row in reader if row]
    try:
        return [np.array([row[where[name]] for row in rows], dtype=np.int64)
                for name in header]
    except KeyError as exc:
        raise ValueError(f"missing column {exc}") from None
    except IndexError:
        raise ValueError("a row has fewer cells than the header") from None
    except OverflowError as exc:
        raise ValueError(str(exc)) from None


def write_events(path, events: Events) -> None:
    _write_columns(path, EVENT_FIELDS, events)


def read_events(path) -> Events:
    return Events(*read_columns(path, EVENT_FIELDS))


def write_trials(path, trials: Trials) -> None:
    _write_columns(path, TRIAL_FIELDS, trials)


def read_trials(path) -> Trials:
    return Trials(*read_columns(path, TRIAL_FIELDS))
