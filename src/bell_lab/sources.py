"""Outcome generators.

Five families live here:

* ideal two-channel singlet sampling at fixed analyzer angles,
* the same source seen through analyzers whose orientations jitter
  around their nominal settings,
* counterfactual spreadsheets: n rows of four predetermined +-1 values
  (A, A', B, B'), one column per possible setting,
* "tennis ball" instruction sets carrying predetermined answer bits for
  each setting a station might choose,
* a contextual model with hidden variables in source and instruments and
  a detection threshold, which post-selection pushes past every
  spreadsheet bound.

All samplers draw from a caller-supplied numpy Generator and document
their draw order, so identical streams replay identical records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import MINUS, PLUS


# ---------------------------------------------------------------------------
# ideal singlet source

def singlet_prob(a: int, b: int, delta: float) -> float:
    """Joint probability of outcomes (a, b) at analyzer difference delta.

    This is the unique two-outcome law with uniform single-side marginals
    and correlation -cos(delta).
    """
    if a not in (PLUS, MINUS) or b not in (PLUS, MINUS):
        raise ValueError("singlet outcomes are +-1 only")
    return (1.0 - a * b * math.cos(delta)) / 4.0


def singlet_pairs(theta_a, theta_b, n: int, rng: np.random.Generator):
    """Sample n outcome pairs; returns (a, b) int8 arrays.

    theta_a and theta_b are analyzer angles, each a scalar or an array of
    n per-pair angles.  Draw order per batch: side-A signs first, then
    the agreement draws for side B.  P(b = -a) = (1 + cos(theta_a -
    theta_b)) / 2.
    """
    delta = np.subtract(theta_a, theta_b)
    if not np.isfinite(delta).all():
        raise ValueError("analyzer angles must be finite")
    p_anti = (1.0 + np.cos(delta)) / 2.0
    a = rng.choice(np.array([PLUS, MINUS], dtype=np.int8), size=n)
    flip = rng.random(n) < p_anti
    b = np.where(flip, -a, a).astype(np.int8)
    return a, b


# ---------------------------------------------------------------------------
# smeared analyzers

JITTER_WEIGHTS = ("uniform", "truncated_gaussian")


@dataclass(frozen=True)
class AngleJitter:
    """Random analyzer orientation: nominal center, half-width, weight shape.

    half_width = 0 degenerates to a fixed analyzer.  The truncated
    gaussian shape has sigma = half_width / 2.
    """

    center: float
    half_width: float = 0.0
    weight: str = "uniform"

    def __post_init__(self):
        if not 0 <= self.half_width < math.inf:
            raise ValueError(f"half_width must be finite and >= 0, "
                             f"got {self.half_width}")
        if self.weight not in JITTER_WEIGHTS:
            raise ValueError(f"weight must be one of {JITTER_WEIGHTS}")

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.half_width == 0.0:
            return np.full(n, self.center)
        if self.weight == "uniform":
            return self.center + self.half_width * (2.0 * rng.random(n) - 1.0)
        out = np.empty(n)
        todo = np.arange(n)
        while todo.size:  # rejection sample the truncation
            cand = rng.normal(0.0, self.half_width / 2.0, todo.size)
            ok = np.abs(cand) <= self.half_width
            out[todo[ok]] = self.center + cand[ok]
            todo = todo[~ok]
        return out


def smeared_pairs(jitter_a: AngleJitter, jitter_b: AngleJitter, n: int,
                  rng: np.random.Generator):
    """Singlet pairs through jittered analyzers; returns (a, b) int8 arrays.

    Draw order: side-A orientations, side-B orientations, then
    singlet_pairs at the realized per-pair angles.  A zero half-width
    draws nothing, so with both half-widths zero the records coincide
    with singlet_pairs' draw for draw.
    """
    return singlet_pairs(jitter_a.draw(n, rng), jitter_b.draw(n, rng), n, rng)


# ---------------------------------------------------------------------------
# counterfactual spreadsheets

# all 16 joint instructions (A, A', B, B'), each entry +-1
ATOMS: tuple = tuple(itertools.product((PLUS, MINUS), repeat=4))


def row_combination(a, ap, b, bp):
    """A*B + A*B' + A'*B - A'*B', the quantity bounded by +-2 per row."""
    return a * b + a * bp + ap * b - ap * bp


@dataclass(frozen=True)
class InstructionDist:
    """Probability law over the 16 joint instructions."""

    probs: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (16,):
            raise ValueError("need exactly 16 probabilities, one per instruction")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be >= 0 and sum to 1")
        object.__setattr__(self, "probs", tuple(p / p.sum()))

    @classmethod
    def uniform(cls) -> "InstructionDist":
        return cls((1.0 / 16,) * 16)

    @classmethod
    def point_mass(cls, atom) -> "InstructionDist":
        return cls.from_mapping({tuple(atom): 1.0})

    @classmethod
    def from_mapping(cls, weights: dict) -> "InstructionDist":
        probs = [0.0] * 16
        for atom, w in weights.items():
            atom = tuple(int(v) for v in atom)
            if atom not in ATOMS:
                raise ValueError(f"unknown instruction {atom!r}")
            probs[ATOMS.index(atom)] += float(w)
        return cls(tuple(probs))

    @classmethod
    def positive_boundary(cls) -> "InstructionDist":
        """Uniform over the eight instructions whose row combination is +2."""
        plus2 = [a for a in ATOMS if row_combination(*a) == 2]
        return cls.from_mapping({a: 1.0 / len(plus2) for a in plus2})


@dataclass(frozen=True)
class Spreadsheet4:
    """n rows of predetermined outcomes, columns (A, A', B, B')."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError("spreadsheet needs shape (n, 4)")
        if arr.size and not np.isin(arr, (PLUS, MINUS)).all():
            raise ValueError("spreadsheet entries must be +-1")
        object.__setattr__(self, "rows", arr)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def row_combinations(self) -> np.ndarray:
        a, ap, b, bp = (self.rows[:, k].astype(np.int64) for k in range(4))
        return row_combination(a, ap, b, bp)


def generate_cfd_spreadsheet(n_rows: int, dist: InstructionDist,
                             rng: np.random.Generator) -> Spreadsheet4:
    """Draw n_rows independent instructions from dist."""
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    atoms = np.array(ATOMS, dtype=np.int8)
    idx = rng.choice(16, size=n_rows, p=np.asarray(dist.probs))
    return Spreadsheet4(atoms[idx])


# ---------------------------------------------------------------------------
# tennis-ball instruction sets

# station settings used with these balls: side A chooses 0 or 3,
# side B chooses 0 or 2, and the pair is summarized by d = |b - a|
SETTINGS_A = (0, 3)
SETTINGS_B = (0, 2)


@dataclass(frozen=True)
class BallVariant:
    """Preparation law for ball pairs.

    q is the probability that the d = 0 answers disagree (perfect
    anti-correlation at q = 1).  p_a3_flip and p_b2_flip set how often
    the auxiliary answers A3 and B2 disagree with B0, which fixes the
    d = 1, 2, 3 statistics.  p_drop removes a pair entirely: neither
    station registers a count.
    """

    q: float = 1.0
    p_a3_flip: float = 0.5
    p_b2_flip: float = 0.5
    p_drop: float = 0.0

    def __post_init__(self):
        for name in ("q", "p_a3_flip", "p_b2_flip", "p_drop"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def strict() -> BallVariant:
    """Perfect anti-correlation at d = 0, fair independent answers elsewhere."""
    return BallVariant(q=1.0, p_a3_flip=0.5, p_b2_flip=0.5, p_drop=0.0)


def missing_pairs(p_drop: float = 0.1) -> BallVariant:
    """Strict anti-correlation plus random whole-pair losses.

    A3 copies B0 here, which is what parks the run statistics right on
    the spreadsheet boundary once dropped pairs are excluded.
    """
    return BallVariant(q=1.0, p_a3_flip=0.0, p_b2_flip=0.5, p_drop=p_drop)


def partial_anticorr(q: float, p_a3_flip: float = 0.0075,
                     p_b2_flip: float = 1.0) -> BallVariant:
    """Imperfect d = 0 anti-correlation with strongly aligned side answers."""
    return BallVariant(q=q, p_a3_flip=p_a3_flip, p_b2_flip=p_b2_flip,
                       p_drop=0.0)


@dataclass(frozen=True)
class BallTable:
    """Column store of generated ball pairs."""

    a0: np.ndarray
    a3: np.ndarray
    b0: np.ndarray
    b2: np.ndarray
    prepared: np.ndarray

    def __len__(self) -> int:
        return self.a0.shape[0]


def generate_tennis_balls(n_pairs: int, variant: BallVariant,
                          rng: np.random.Generator) -> BallTable:
    """Draw n_pairs ball pairs under the variant's preparation law.

    Draw order: B0 bits, the d = 0 disagreement draws, the A3 draws, the
    B2 draws, then the drop draws.
    """
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    b0 = rng.integers(0, 2, size=n_pairs, dtype=np.int8)
    a0 = b0 ^ (rng.random(n_pairs) < variant.q)
    a3 = b0 ^ (rng.random(n_pairs) < variant.p_a3_flip)
    b2 = b0 ^ (rng.random(n_pairs) < variant.p_b2_flip)
    prepared = rng.random(n_pairs) >= variant.p_drop
    return BallTable(a0.astype(np.int8), a3.astype(np.int8), b0,
                     b2.astype(np.int8), prepared)


# ---------------------------------------------------------------------------
# contextual detection-threshold model

@dataclass(frozen=True)
class ContextualParams:
    """Hidden-variable model with instrument noise and a detection threshold.

    A shared source phase phi is read through each analyzer as
    cos 2(phi - theta); the reading's sign is the outcome, but it only
    registers when its magnitude clears tau0 * lambda**gamma, where
    lambda is that instrument's private uniform noise for the trial.
    Side B reports the flipped sign, so aligned analyzers that both fire
    are perfectly anti-correlated.

    angles_a / angles_b map integer setting labels to analyzer angles.
    """

    gamma: float = 0.5
    tau0: float = 1.0
    angles_a: tuple = (0.0, math.pi / 4)
    angles_b: tuple = (-3 * math.pi / 8, 3 * math.pi / 8)

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0 <= self.tau0 < math.inf:
            raise ValueError(f"tau0 must be finite and >= 0, got {self.tau0}")
        object.__setattr__(self, "angles_a", tuple(float(t) for t in self.angles_a))
        object.__setattr__(self, "angles_b", tuple(float(t) for t in self.angles_b))


def contextual_batch(x: int, y: int, n: int, params: ContextualParams,
                     rng: np.random.Generator):
    """n trials at setting labels (x, y); returns (a, b) int8 arrays.

    Draw order per batch: source phases phi, side-A instrument noise,
    side-B instrument noise.  The side-A record is a function of
    (phi, lambda_a, x) alone, so replaying the stream with a different y
    reproduces it bit for bit.
    """
    if not (0 <= x < len(params.angles_a) and 0 <= y < len(params.angles_b)):
        raise ValueError(f"setting labels ({x}, {y}) have no analyzer angle")
    theta_x = params.angles_a[x]
    theta_y = params.angles_b[y]
    phi = rng.random(n) * 2.0
    phi *= np.pi
    out = []
    for theta in (theta_x, theta_y):  # in place: no float temporaries
        lam = rng.random(n)  # side A's noise, then side B's
        lam **= params.gamma
        lam *= params.tau0
        c = phi - theta
        np.cos(np.multiply(c, 2.0, out=c), out=c)
        sign = np.sign(c, out=np.empty(n, np.int8), casting="unsafe")
        sign *= np.abs(c, out=c) >= lam
        out.append(sign)
    out[1] *= -1  # side B reports the opposite sign
    return tuple(out)
