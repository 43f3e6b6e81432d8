"""A two-player guessing game bounded at 3 points per 4 rounds for programs.

Each round the players receive private input bits x and y and answer
with bits a and b; they score when (a + b) mod 2 = x * y.  A local
player is a choice among four programs: answer 0, answer 1, copy the
input, or negate the input.  Enumerating all 16 program pairs over all 4
inputs shows at most 3 of the 4 input pairs can score, while the
quantum strategy scores every round with probability cos^2(pi/8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

QUANTUM_POINT_PROB = math.cos(math.pi / 8) ** 2

PROGRAM_IDS = (1, 2, 3, 4)

# _OUTPUTS[i - 1, x]: program i answers 0, 1, x or 1 - x on input bit x
_OUTPUTS = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=np.int8)


def program_output(i: int, x: int) -> int:
    """Answer of program i on input bit x: 0, 1, x, or 1 - x."""
    if i not in PROGRAM_IDS:
        raise ValueError(f"program id must be in {PROGRAM_IDS}")
    if x not in (0, 1):
        raise ValueError("input must be a bit")
    return int(_OUTPUTS[i - 1, x])


def is_point(x, y, a, b):
    """Whether answers a, b score on inputs x, y; elementwise on arrays."""
    return (a + b) % 2 == x * y


INPUT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def counterfactual_table() -> dict:
    """Every program pair on every input pair, as columns: programs i and j
    (16,), answers a and b (16, 4) over INPUT_PAIRS, and score (16,), the
    input pairs each program pair wins."""
    i, j = np.repeat(PROGRAM_IDS, 4), np.tile(PROGRAM_IDS, 4)
    x, y = np.array(INPUT_PAIRS).T
    _, _, a, b = _run(i[:, None], j[:, None], x, y)
    return {"i": i, "j": j, "a": a, "b": b,
            "score": np.count_nonzero(is_point(x, y, a, b), axis=1)}


def _run(i: np.ndarray, j: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """Programs i and j played on inputs x and y: the columns (i, j, a, b)."""
    return i, j, _OUTPUTS[i - 1, x], _OUTPUTS[j - 1, y]


class FixedProgramStrategy:
    """Both players run the same committed programs every round."""

    def __init__(self, i: int, j: int):
        program_output(i, 0)
        program_output(j, 0)
        self.i = i
        self.j = j

    def answers(self, x: np.ndarray, y: np.ndarray,
                rng: np.random.Generator) -> tuple:
        return _run(np.full(len(x), self.i, np.int8),
                    np.full(len(y), self.j, np.int8), x, y)


class RandomProgramStrategy:
    """Fresh independent program picks each round; the i column is drawn
    before the j column."""

    def answers(self, x: np.ndarray, y: np.ndarray,
                rng: np.random.Generator) -> tuple:
        return _run(rng.integers(1, 5, size=len(x)).astype(np.int8),
                    rng.integers(1, 5, size=len(y)).astype(np.int8), x, y)


class ScriptedStrategy:
    """Replay a fixed list of (i, j, x, y) rounds, cycling if needed.

    The script brings its own inputs, so games played with it skip the
    usual random input draws.
    """

    def __init__(self, script: Sequence[tuple]):
        rows = [tuple(int(v) for v in row) for row in script]
        if not rows:
            raise ValueError("script must be non-empty")
        for i, j, x, y in rows:
            program_output(i, x)
            program_output(j, y)
        self.script = np.array(rows, dtype=np.int8)

    def answers(self, x: np.ndarray, y: np.ndarray,
                rng: np.random.Generator) -> tuple:
        i, j = (np.resize(c, len(x)) for c in self.script[:, :2].T)
        return _run(i, j, x, y)


# the script that wins all four input pairs once each, in the order
# (0,0), (0,1), (1,1), (1,0)
PERFECT_SCRIPT = ((1, 1, 0, 0), (2, 2, 0, 1), (4, 3, 1, 1), (3, 4, 1, 0))


class ContextualProgramStrategy:
    """Program picks driven by a shared round phase plus private noise.

    The draws are three columns: shared phase u, side-A noise, side-B
    noise.  Each side's program index depends only on its own (u, noise),
    never on the other side's input.
    """

    def __init__(self, wobble: float = 0.25):
        if not 0.0 <= wobble <= 1.0:
            raise ValueError("wobble must lie in [0, 1]")
        self.wobble = wobble

    def answers(self, x: np.ndarray, y: np.ndarray,
                rng: np.random.Generator) -> tuple:
        u = rng.random(len(x))
        na = rng.random(len(x))
        nb = rng.random(len(x))
        i, j = (1 + (4.0 * ((u + self.wobble * n) % 1.0)).astype(np.int8) % 4
                for n in (na, nb))
        return _run(i, j, x, y)


class QuantumStrategy:
    """The optimal shared-entanglement behavior.

    Scores with probability cos^2(pi/8) on every input pair, with
    uniform answer marginals on both sides.  It runs no programs, so i
    and j are None.  Draw order: the side-A answer column, then the
    success column that fixes side B, as bits XORed on the lose mask.
    """

    def answers(self, x: np.ndarray, y: np.ndarray,
                rng: np.random.Generator) -> tuple:
        a = rng.integers(0, 2, size=len(x)).astype(np.int8)
        b = (rng.random(len(x)) >= QUANTUM_POINT_PROB).view(np.int8)
        b ^= a
        b ^= x & y
        return None, None, a, b


@dataclass(frozen=True, eq=False)
class GameResult:
    """One game as int8 columns: inputs x, y; programs i, j (None when
    the strategy runs none); answers a, b."""

    x: np.ndarray
    y: np.ndarray
    i: np.ndarray | None
    j: np.ndarray | None
    a: np.ndarray
    b: np.ndarray

    @property
    def point(self) -> np.ndarray:
        return is_point(self.x, self.y, self.a, self.b)

    @property
    def points(self) -> int:
        return int(np.count_nonzero(self.point))

    @property
    def rounds_played(self) -> int:
        return len(self.x)

    @property
    def avg_score(self) -> float:
        """Points per four rounds, the scale on which 3 bounds programs."""
        if self.rounds_played == 0:
            raise ValueError("no rounds played")
        return 4.0 * self.points / self.rounds_played


def play_game(strategy, rounds: int, rng: np.random.Generator) -> GameResult:
    """Play rounds with fair random inputs (the x column before the y
    column), or with a scripted strategy's own inputs."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if isinstance(strategy, ScriptedStrategy):
        x, y = (np.resize(c, rounds) for c in strategy.script[:, 2:].T)
    else:
        x = rng.integers(0, 2, size=rounds).astype(np.int8)
        y = rng.integers(0, 2, size=rounds).astype(np.int8)
    return GameResult(x, y, *strategy.answers(x, y, rng))
