"""The benchmark's workloads: inputs made from a seed, the command lists a
pass runs through ``bell_lab.cli.main``, and the checks on their output.

A workload object owns its scratch directory and the state its checks
carry from pass to pass (the first pass's stdout and trials files, which
every later pass must repeat byte for byte).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

SIZES = ("full", "tiny")


@dataclass
class Output:
    """What one ``main(argv)`` call returned and printed."""

    code: int | None
    stdout: str
    error: str | None = None  # an exception that escaped main

    def summary(self) -> dict:
        """The JSON summary, which is the last thing a command prints."""
        text = self.stdout
        start = 0 if text.startswith("{") else text.index("\n{") + 1
        return json.loads(text[start:])


@dataclass
class Step:
    """One CLI call of a pass and the check on its output.

    check returns a list of problems; an empty list means the output is
    correct.  It is only called after an exit code of 0.
    """

    label: str
    argv: list
    check: Callable[[Output], list] = lambda out: []


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, size: str = "full"):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.work = Path(work)
        self.seed = int(seed)
        self.size = size
        self._first_stdout = {}
        self._first_hash = {}

    # the runner calls these --------------------------------------------

    def prepare(self) -> dict:
        """Write the inputs; return the input sizes for the result record."""
        self.work.mkdir(parents=True, exist_ok=True)
        return {}

    def warmup(self) -> list:
        """Untimed calls before the first pass; checked like any other."""
        return []

    def steps(self) -> list:
        """The command list of one pass."""
        raise NotImplementedError

    def check(self, step: Step, out: Output) -> list:
        """Exit code, the step's own check, and repeatability across passes."""
        if out.error is not None:
            return [f"{step.label}: raised {out.error}"]
        if out.code != 0:
            return [f"{step.label}: exit code {out.code}"]
        try:
            problems = list(step.check(out))
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"{step.label}: unreadable output ({exc!r})"]
        first = self._first_stdout.setdefault(step.label, out.stdout)
        if out.stdout != first:
            problems.append(f"{step.label}: stdout differs from the first pass")
        return problems

    # helpers for subclasses -------------------------------------------

    def _same_bytes(self, label: str, path: Path) -> list:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self._first_hash.setdefault(label, digest) != digest:
            return [f"{label}: {path.name} differs from the first pass"]
        return []


# ---------------------------------------------------------------------------
# pipeline: the event-record path

# analyzer angles per setting label; with these the singlet S is -2*sqrt(2)
ANGLES_A = (0.0, math.pi / 2)
ANGLES_B = (math.pi / 4, -math.pi / 4)
LOSS_A = 0.08
LOSS_B = 0.12
EVENT_HEADER = "window_index,setting_label,outcome"

PIPELINE_SIZES = {
    # emissions before loss; about 1e5 events per side survive at "full"
    "full": {"emissions": 110_000, "simulate_n": 100_000, "random_m": 100_000},
    "tiny": {"emissions": 3_000, "simulate_n": 3_000, "random_m": 3_000},
}
WIDE_WINDOW = 2.0  # catches the +-1 jitter that width 1 misses
SIMULATE_ANGLES = (0.0, math.pi / 4)


def _write_events(path: Path, window, setting, outcome) -> None:
    cols = np.column_stack([window, setting, outcome]).astype(np.int64)
    np.savetxt(path, cols, fmt="%d", delimiter=",", header=EVENT_HEADER,
               comments="")


def chsh_oracle(x, y, a, b) -> float:
    """S = E00 + E01 + E10 - E11 over the given coincident records."""
    prod = a.astype(np.int64) * b.astype(np.int64)
    e = {(i, j): float(np.mean(prod[(x == i) & (y == j)]))
         for i in (0, 1) for j in (0, 1)}
    return e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]


def generate_pipeline_inputs(seed: int, emissions: int, out_dir: Path) -> dict:
    """Two station event CSVs from one seeded emission record.

    Each emission gets a window index (gaps of 1 to 3), a setting pair
    drawn uniformly from {0,1} x {0,1}, and singlet outcomes at the
    analyzer angles above.  Each side loses events independently.  Side
    B's window index is jittered by -1, 0 or +1.  An unjittered copy of
    side B is written too, so pairing it at width 1 must recover exactly
    the emissions both sides kept.
    """
    rng = np.random.default_rng(seed)
    window = np.cumsum(rng.integers(1, 4, size=emissions))
    x = rng.integers(0, 2, size=emissions)
    y = rng.integers(0, 2, size=emissions)
    delta = np.asarray(ANGLES_A)[x] - np.asarray(ANGLES_B)[y]
    a = rng.choice(np.array([1, -1]), size=emissions)
    b = np.where(rng.random(emissions) < (1.0 + np.cos(delta)) / 2.0, -a, a)
    keep_a = rng.random(emissions) >= LOSS_A
    keep_b = rng.random(emissions) >= LOSS_B
    jitter = rng.integers(-1, 2, size=emissions)

    paths = {"a": out_dir / "events_a.csv", "b": out_dir / "events_b.csv",
             "b_exact": out_dir / "events_b_exact.csv"}
    _write_events(paths["a"], window[keep_a], x[keep_a], a[keep_a])
    _write_events(paths["b"], (window + jitter)[keep_b], y[keep_b], b[keep_b])
    _write_events(paths["b_exact"], window[keep_b], y[keep_b], b[keep_b])
    both = keep_a & keep_b
    return {"paths": paths, "n_a": int(keep_a.sum()), "n_b": int(keep_b.sum()),
            "n_shared": int(both.sum()),
            "s_exact": chsh_oracle(x[both], y[both], a[both], b[both])}


def check_window_counts(summary: dict, n_a: int, n_b: int,
                        n_coincident: int | None = None) -> list:
    """Every event lands in exactly one trial: n_trials = n_a + n_b - coincident."""
    sizes, res = summary["sizes"], summary["results"]
    problems = []
    if (sizes["n_events_a"], sizes["n_events_b"]) != (n_a, n_b):
        problems.append(f"read {sizes['n_events_a']}/{sizes['n_events_b']} "
                        f"events, wrote {n_a}/{n_b}")
    if res["n_trials"] != n_a + n_b - res["n_coincident"]:
        problems.append(f"n_trials {res['n_trials']} != {n_a} + {n_b} - "
                        f"{res['n_coincident']}")
    if n_coincident is not None and res["n_coincident"] != n_coincident:
        problems.append(f"n_coincident {res['n_coincident']} != "
                        f"{n_coincident} shared emissions")
    return problems


class Pipeline(Workload):
    """The event-record path: CSV round trips, StationEvent and PairedTrial
    objects, three pairing schemes and the list estimators.  randi,
    bellgame and the thread pool sit idle.  Two window widths separate
    exact matching (width <= 1) from greedy matching."""

    name = "pipeline"

    def prepare(self) -> dict:
        super().prepare()
        self.cfg = PIPELINE_SIZES[self.size]
        self.inputs = generate_pipeline_inputs(self.seed, self.cfg["emissions"],
                                               self.work)
        return {"emissions": self.cfg["emissions"],
                "events_a": self.inputs["n_a"], "events_b": self.inputs["n_b"],
                "shared_emissions": self.inputs["n_shared"],
                "simulate_n": self.cfg["simulate_n"],
                "random_pairs": self.cfg["random_m"],
                "wide_window": WIDE_WINDOW}

    def _pair(self, label: str, spec: str, side_b: str = "b") -> list:
        p = self.inputs["paths"]
        return ["pair", "--events-a", str(p["a"]), "--events-b", str(p[side_b]),
                "--pairing", spec, "--seed", str(self.seed),
                "--out", str(self.work / label)]

    def _estimate(self, label: str, stat: str) -> list:
        return ["estimate", "--input", str(self.work / label / "trials.csv"),
                "--stat", stat]

    def warmup(self) -> list:
        """The exact-recovery probe on the unjittered streams."""
        n_a, n_b = self.inputs["n_a"], self.inputs["n_b"]
        n_shared, s_exact = self.inputs["n_shared"], self.inputs["s_exact"]

        def check_exact_s(out: Output) -> list:
            s = out.summary()["results"]["s_value"]
            if s is None or abs(s - s_exact) > 1e-12:
                return [f"exact chsh: {s} != numpy {s_exact}"]
            return []

        return [
            Step("exact_pair", self._pair("exact", "window:1", "b_exact"),
                 lambda out: check_window_counts(out.summary(), n_a, n_b,
                                                 n_shared)),
            Step("exact_chsh", self._estimate("exact", "chsh"), check_exact_s),
        ]

    def steps(self) -> list:
        n_a, n_b = self.inputs["n_a"], self.inputs["n_b"]
        cfg = self.cfg

        def window(label):
            def check(out):
                return (check_window_counts(out.summary(), n_a, n_b)
                        + self._same_bytes(label, self.work / label / "trials.csv"))
            return check

        def defined_s(out):
            s = out.summary()["results"]["s_value"]
            return [] if s is not None and abs(s) <= 4 else [f"chsh s_value {s}"]

        def check_simulate(out):
            res = out.summary()["results"]
            target = -math.cos(SIMULATE_ANGLES[0] - SIMULATE_ANGLES[1])
            tol = 6.0 / math.sqrt(cfg["simulate_n"])
            problems = []
            if res["n_coincident"] != cfg["simulate_n"]:
                problems.append(f"simulate n_coincident {res['n_coincident']}")
            if abs(res["correlation"] - target) > tol:
                problems.append(f"simulate correlation {res['correlation']}")
            return problems

        def check_systematic(out):
            n = out.summary()["results"]["n_trials"]
            return (([] if n == min(n_a, n_b) else
                     [f"systematic:1 gave {n} trials, not min({n_a}, {n_b})"])
                    + self._same_bytes("sys", self.work / "sys" / "trials.csv"))

        def check_random(out):
            n = out.summary()["results"]["n_trials"]
            return [] if n == cfg["random_m"] else [f"random gave {n} trials"]

        def check_correlation(out):
            c = out.summary()["results"]["correlation"]
            return [] if c is not None and -1 <= c <= 1 else [f"correlation {c}"]

        def check_homogeneity(out):
            res = out.summary()["results"]
            missing = {"chi_square", "ks", "runs"} - set(res)
            return [f"homogeneity lacks {sorted(missing)}"] if missing else []

        angles = ",".join(repr(t) for t in SIMULATE_ANGLES)
        return [
            Step("simulate", ["simulate", "--model", "singlet", "--angles", angles,
                              "--n", str(cfg["simulate_n"]),
                              "--seed", str(self.seed),
                              "--out", str(self.work / "sim")], check_simulate),
            Step("w1", self._pair("w1", "window:1"), window("w1")),
            Step("w2", self._pair("w2", f"window:{WIDE_WINDOW:g}"), window("w2")),
            Step("w1_chsh", self._estimate("w1", "chsh"), defined_s),
            Step("w2_chsh", self._estimate("w2", "chsh"), defined_s),
            Step("sys", self._pair("sys", "systematic:1"), check_systematic),
            Step("rand", self._pair("rand", f"random:{cfg['random_m']}"),
                 check_random),
            Step("rand_corr", self._estimate("rand", "correlation"),
                 check_correlation),
            Step("homogeneity", ["homogeneity", "--input",
                                 str(self.inputs["paths"]["a"]),
                                 "--method", "all"], check_homogeneity),
        ]


# ---------------------------------------------------------------------------
# campaigns: few runs, each with a large N

CAMPAIGN_SIZES = {
    "full": {"gill_rows": 100_000, "gill_runs": 200, "ball_pairs": 200_000,
             "ball_runs": 100, "breakdown_run_len": 1_000_000},
    "tiny": {"gill_rows": 2_000, "gill_runs": 20, "ball_pairs": 2_000,
             "ball_runs": 40, "breakdown_run_len": 20_000},
}

_PHI = NormalDist().cdf


def _singlet_unequal(d: int) -> float:
    """P(a != b) for the singlet at setting distance d (units of pi/8)."""
    return (1.0 + math.cos(d * math.pi / 8)) / 2.0


def quantum_bell_rate(n_pairs: int) -> float:
    """P(N_1(unequal) > N_2(equal) + N_3(unequal)) for the quantum ball run.

    Each pair adds +1 to the left side with probability p_plus and to
    the right side with probability p_minus (one of four setting pairs,
    each with probability 1/4); the normal approximation gives the rate.
    """
    p_plus = _singlet_unequal(1) / 4
    p_minus = (1 - _singlet_unequal(2)) / 4 + _singlet_unequal(3) / 4
    mu = p_plus - p_minus
    sd = math.sqrt(p_plus + p_minus - mu ** 2)
    return _PHI(mu * math.sqrt(n_pairs) / sd)


def quantum_counter_chsh_rate(n_pairs: int) -> float:
    """P(counter CHSH > 2) for the quantum ball run, by the delta method."""
    e = [2 * _singlet_unequal(d) - 1 for d in range(4)]
    s = e[0] + e[1] + e[2] - e[3]
    sd = math.sqrt(sum((1 - v * v) / (n_pairs / 4) for v in e))
    return _PHI((s - 2.0) / sd)


def rate_problems(name: str, rate: float, target: float, tol: float,
                  runs: int) -> list:
    """|rate - target| within reproduce's tolerance for the source.

    reproduce sets its tolerances for 1000 runs; at fewer runs the
    tolerance widens to five binomial standard errors where that is
    wider, so a correct program fails this check with negligible odds.
    """
    tol = max(tol, 5.0 * math.sqrt(target * (1 - target) / runs))
    if abs(rate - target) > tol:
        return [f"{name} violation rate {rate} not within {tol:.4f} of {target:.4f}"]
    return []


class Campaigns(Workload):
    """Few campaign runs, each with a large N: per-run sampling and
    tallying dominate, and tasks are big enough for the thread pool to pay."""

    name = "campaigns"

    def prepare(self) -> dict:
        super().prepare()
        self.cfg = CAMPAIGN_SIZES[self.size]
        return dict(self.cfg)

    def warmup(self) -> list:
        """One whole pass: the first pass after start-up runs up to a third
        slower while the allocator and the thread pool settle."""
        return self.steps()

    def steps(self) -> list:
        cfg = self.cfg
        seed = ["--seed", str(self.seed)]
        ball = ["--pairs", str(cfg["ball_pairs"]), "--runs", str(cfg["ball_runs"])]

        def gill(out):
            res = out.summary()["results"]
            rate = res["chsh_violation_rate"]
            if rate > res["qrc_bound"] or res["qrc_won"] is not False:
                return [f"gill-uniform rate {rate} above {res['qrc_bound']}"]
            return []

        def quantum(out):
            res = out.summary()["results"]
            n, runs = cfg["ball_pairs"], cfg["ball_runs"]
            return (rate_problems("quantum bell", res["bell_violation_rate"],
                                  quantum_bell_rate(n), 0.05, runs)
                    + rate_problems("quantum chsh", res["chsh_violation_rate"],
                                    quantum_counter_chsh_rate(n), 0.03, runs))

        def missing(out):
            res = out.summary()["results"]
            return rate_problems("missing-pairs bell", res["bell_violation_rate"],
                                 0.5, 0.1, cfg["ball_runs"])

        def breakdown(out):
            res = out.summary()["results"]
            problems = []
            if res["n_rejecting_100_sem"] < 3:
                problems.append(f"only {res['n_rejecting_100_sem']} runs past 100 SEM")
            if abs(res["pooled"]["z"]) >= 2.0:
                problems.append(f"pooled z {res['pooled']['z']}")
            return problems

        return [
            Step("gill", ["qrc-gill", "--rows", str(cfg["gill_rows"]),
                          "--runs", str(cfg["gill_runs"]), *seed], gill),
            Step("quantum", ["qrc-vongher", "--variant", "quantum", *ball, *seed],
                 quantum),
            Step("missing", ["qrc-vongher", "--variant", "missing-pairs", *ball,
                             *seed], missing),
            Step("breakdown", ["breakdown", "--run-len",
                               str(cfg["breakdown_run_len"]), *seed], breakdown),
        ]


# ---------------------------------------------------------------------------
# reproduce: many runs with a small N, and every headline claim

# the tiny size runs a few cheap targets instead of all fourteen
REPRODUCE_TARGETS = {"full": ("all",), "tiny": ("singlet", "pairing", "chebyshev")}


def check_reproduce(out: Output) -> list:
    res = out.summary()["results"]
    if res["total"] < 1 or res["passed"] != res["total"]:
        return [f"reproduce passed {res['passed']}/{res['total']}"]
    return []


class Reproduce(Workload):
    """reproduce --target all: many runs with a small N, where per-run
    overhead dominates and threads cost time.  The only workload that runs
    bellgame and the contextual, smeared and spreadsheet sources."""

    name = "reproduce"

    def prepare(self) -> dict:
        super().prepare()
        return {"targets": list(REPRODUCE_TARGETS[self.size])}

    def warmup(self) -> list:
        return [Step("warm_chebyshev", ["reproduce", "--target", "chebyshev"],
                     check_reproduce)]

    def steps(self) -> list:
        # reproduce runs at its default seed: its tolerances are set for it
        return [Step(f"reproduce_{t}", ["reproduce", "--target", t],
                     check_reproduce) for t in REPRODUCE_TARGETS[self.size]]


WORKLOADS = {w.name: w for w in (Pipeline, Campaigns, Reproduce)}
