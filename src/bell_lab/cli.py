"""Command line front end.

Subcommands cover the full pipeline: simulate raw event streams, pair
them into trials, estimate statistics, run both computer-challenge
campaigns, play the guessing game, test homogeneity, run the drifting
device demo, and reproduce the headline numbers in one go.  The module
itself loads only the standard library; each command imports the library
modules it runs, so ``--help`` and usage errors never load numpy.

Every JSON summary embeds the command, package version, seed, stream,
the resolved configuration, and the sample sizes, so a summary is a
complete recipe for regenerating its own data.  Exit codes: 0 success,
1 failed reproduction, 2 bad configuration or input, 3 a requested
statistic was undefined under --strict.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from pathlib import Path

from . import __version__

CONFIG_ERROR = 2
UNDEFINED_STAT = 3


# ---------------------------------------------------------------------------
# plumbing

def _load_config(path: str) -> dict:
    """Flat key = value file; values are python literals when they parse."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"config: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        try:
            out[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            low = value.lower()
            out[key] = {"true": True, "false": False}.get(low, value)
    return out


def _atomic_write(path: Path, writer) -> None:
    # whole file appears at once or not at all
    tmp = path.with_name(path.name + ".part")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:  # gone already unless writing or replacing failed
        tmp.unlink(missing_ok=True)


def _json_default(obj):
    if type(obj).__module__ == "numpy":  # numpy scalars/arrays, no import
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _summary(args, sizes: dict, results: dict) -> dict:
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "out") and not k.startswith("_")}
    return {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "stream": getattr(args, "stream", None),
        "config": config,
        "sizes": sizes,
        "results": results,
    }


def _emit(args, sizes: dict, results: dict, extra_files=()) -> None:
    payload = _summary(args, sizes, results)
    text = json.dumps(payload, indent=2, default=_json_default)
    print(text)
    out = getattr(args, "out", None)
    if out is not None:
        out_dir = Path(out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write(out_dir / "summary.json",
                          lambda p: p.write_text(text + "\n"))
            for name, writer in extra_files:
                _atomic_write(out_dir / name, writer)
        except OSError as exc:  # an unusable --out is bad input
            raise ValueError(f"--out {out}: {exc}") from None


def _stream_of(args):
    from .core import RngStream
    return RngStream(args.seed, (args.stream,))


def _read(reader, path, what: str):
    """reader(path); a missing or malformed file is a ValueError."""
    try:
        return reader(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"reading {what}: {exc}") from None


def _parse_two(value, kind, name: str) -> tuple:
    """Two comma-separated values of kind; a config file may give a tuple."""
    parts = value if isinstance(value, (tuple, list)) else str(value).split(",")
    try:
        out = tuple(kind(str(v)) for v in parts)
    except ValueError:
        out = ()
    if len(out) != 2:
        raise ValueError(f"{name}: expected two comma-separated "
                         f"{kind.__name__} values")
    return out


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    import numpy as np
    from . import core, estimators, sources
    n = args.n
    if n < 1:
        raise ValueError("--n must be >= 1")
    rng = _stream_of(args).generator()
    theta_a, theta_b = _parse_two(args.angles, float, "--angles")
    label_a, label_b = args.label_a, args.label_b
    if args.model == "singlet":
        a, b = sources.singlet_pairs(theta_a, theta_b, n, rng)
    elif args.model == "smeared":
        weight = args.jitter_weight
        a, b = sources.smeared_pairs(
            sources.AngleJitter(theta_a, args.half_width_a, weight),
            sources.AngleJitter(theta_b, args.half_width_b, weight), n, rng)
    else:
        params = sources.ContextualParams(gamma=args.gamma, tau0=args.tau0)
        a, b = sources.contextual_batch(args.x, args.y, n, params, rng)
        label_a, label_b = args.x, args.y

    trials = core.Trials(np.full(n, label_a), np.full(n, label_b), a, b)
    window = np.arange(n)  # both stations fire in step
    events_a = core.Events(window, trials.setting_a, trials.a)
    events_b = core.Events(window, trials.setting_b, trials.b)
    results = {"correlation": estimators.correlation(core.tabulate(trials)),
               "n_coincident": int(trials.coincident.sum()),
               "mean_a": float(np.mean(a)), "mean_b": float(np.mean(b))}
    _emit(args, {"n": n}, results, extra_files=(
        ("events_a.csv", lambda p: core.write_events(p, events_a)),
        ("events_b.csv", lambda p: core.write_events(p, events_b)),
        ("trials.csv", lambda p: core.write_trials(p, trials)),
    ))
    return 0


# ---------------------------------------------------------------------------
# pair

def _parse_pairing(spec: str):
    kind, _, param = str(spec).partition(":")
    kinds = {"systematic": int, "random": int, "window": float}
    if kind not in kinds:
        raise ValueError("--pairing must be systematic:k, random:m or window:w")
    if not param:
        raise ValueError(f"--pairing {kind} needs a parameter, e.g. {kind}:1")
    try:
        return kind, kinds[kind](param)
    except ValueError:
        raise ValueError(f"--pairing {kind}: bad parameter {param!r}")


def cmd_pair(args) -> int:
    from . import core, pairing
    events_a = _read(core.read_events, args.events_a, "events")
    events_b = _read(core.read_events, args.events_b, "events")
    kind, param = _parse_pairing(args.pairing)
    pair = {"systematic": lambda ea, eb: pairing.pair_systematic(ea, eb, param),
            "random": lambda ea, eb: pairing.pair_random(
                ea, eb, param, _stream_of(args).generator()),
            "window": lambda ea, eb: pairing.pair_time_window(ea, eb, param)}
    trials, unmatched_a, unmatched_b = pairing.pair_counting_unmatched(
        pair[kind], events_a, events_b)
    n_coinc = int(trials.coincident.sum())
    _emit(args,
          {"n_events_a": len(events_a), "n_events_b": len(events_b),
           "n_trials": len(trials)},
          {"n_trials": len(trials), "n_coincident": n_coinc,
           "unmatched_a": unmatched_a, "unmatched_b": unmatched_b},
          extra_files=(("trials.csv",
                        lambda p: core.write_trials(p, trials)),))
    return 0


# ---------------------------------------------------------------------------
# estimate

# the flags each statistic never reads: counter-chsh and bell-counter use
# the ball grid and coincident pairs, eberhard counts every trial
IGNORED_FLAGS = {
    "correlation": ("--a-labels", "--b-labels"),
    "covariance": ("--a-labels", "--b-labels"),
    "counter-chsh": ("--a-labels", "--b-labels", "--include-no-counts"),
    "bell-counter": ("--a-labels", "--b-labels", "--include-no-counts"),
    "eberhard": ("--include-no-counts",),
}


def cmd_estimate(args) -> int:
    from . import core, estimators, pairing
    a_labels = _parse_two(args.a_labels, int, "--a-labels")
    b_labels = _parse_two(args.b_labels, int, "--b-labels")
    changed = {"--a-labels": a_labels != (0, 1), "--b-labels": b_labels != (0, 1),
               "--include-no-counts": args.include_no_counts}
    for flag in IGNORED_FLAGS.get(args.stat, ()):
        if changed[flag]:
            raise ValueError(f"{flag} has no effect on --stat {args.stat}")
    trials = _read(core.read_trials, args.input, "trials")
    coincident_only = not args.include_no_counts
    table = core.tabulate(trials)

    if args.stat == "correlation":
        results = {"correlation": estimators.correlation(table, coincident_only)}
    elif args.stat == "covariance":
        try:
            results = {"covariance": pairing.covariance(trials, coincident_only)}
        except ValueError:
            results = {"covariance": None}
    elif args.stat == "chsh":
        results = estimators.chsh(table, a_labels, b_labels, coincident_only)
    elif args.stat == "counter-chsh":
        counters = estimators.vongher_counters(table)
        results = {**estimators.chsh_from_counters(counters), **counters}
    elif args.stat == "bell-counter":
        counters = estimators.vongher_counters(table)
        results = {**estimators.bell_counter_test(counters), **counters}
    else:  # eberhard
        counts = estimators.eberhard_counts(table, a_labels, b_labels)
        results = {"j_value": estimators.eberhard_j(counts), "counts": counts}

    _emit(args, {"n_trials": len(trials)}, results)
    undefined = None in [results.get(k, 0)
                         for k in ("correlation", "covariance", "s_value")]
    return UNDEFINED_STAT if undefined and args.strict else 0


# ---------------------------------------------------------------------------
# campaigns

def _gill_dist(args):
    from . import sources
    kind, _, param = str(args.generator).partition(":")
    if kind == "uniform":
        return sources.InstructionDist.uniform()
    if kind == "positive-boundary":
        return sources.InstructionDist.positive_boundary()
    if kind != "point-mass":
        raise ValueError("--generator must be uniform, positive-boundary "
                         "or point-mass:A,A',B,B'")
    atom = tuple(int(v) for v in (param or "1,1,1,1").split(","))
    return sources.InstructionDist.point_mass(atom)


def cmd_qrc_gill(args) -> int:
    from . import core, randi
    dist = _gill_dist(args)
    results, rows = randi.gill_campaign(dist, args.rows, args.runs,
                                        _stream_of(args))
    _emit(args, {"runs": args.runs, "rows": args.rows}, results,
          extra_files=(("per_run.csv", lambda p: core.write_rows(
              p, randi.GILL_FIELDS, rows)),))
    return 0


def _vongher_source(args):
    from . import randi, sources
    if args.variant == "quantum":
        return randi.QUANTUM_SOURCE
    if args.variant == "strict":
        return sources.strict()
    if args.variant == "missing-pairs":
        return sources.missing_pairs(args.p_drop)
    return sources.partial_anticorr(args.q, args.p_a3_flip, args.p_b2_flip)


def cmd_qrc_vongher(args) -> int:
    from . import core, randi
    results, rows = randi.vongher_campaign(_vongher_source(args), args.runs,
                                           args.pairs, _stream_of(args))
    _emit(args, {"runs": args.runs, "pairs": args.pairs}, results,
          extra_files=(("per_run.csv", lambda p: core.write_rows(
              p, randi.VONGHER_FIELDS, rows)),))
    return 0


# ---------------------------------------------------------------------------
# bell game

def _game_strategy(args):
    from . import bellgame, core
    if args.strategy == "fixed":
        return bellgame.FixedProgramStrategy(args.i, args.j)
    if args.strategy == "random":
        return bellgame.RandomProgramStrategy()
    if args.strategy == "contextual":
        return bellgame.ContextualProgramStrategy(args.wobble)
    if args.strategy == "quantum":
        return bellgame.QuantumStrategy()
    script = bellgame.PERFECT_SCRIPT
    if args.script is not None:
        columns = _read(lambda p: core.read_columns(p, ("i", "j", "x", "y")),
                        args.script, "script")
        script = tuple(zip(*(c.tolist() for c in columns)))
    return bellgame.ScriptedStrategy(script)


def cmd_bellgame(args) -> int:
    from . import bellgame, core
    if args.rounds < 1:
        raise ValueError("--rounds must be >= 1")
    strategy = _game_strategy(args)
    rng = _stream_of(args).generator()
    res = bellgame.play_game(strategy, args.rounds, rng)
    results = {"rounds": res.rounds_played, "points": res.points,
               "avg_score": res.avg_score}

    def write_rounds(path):
        # a strategy that runs no programs leaves the i and j cells blank
        programs = ([None] * res.rounds_played if c is None else c.tolist()
                    for c in (res.i, res.j))
        columns = (res.x, res.y, res.a, res.b, res.point.astype(int))
        rows = zip(range(1, res.rounds_played + 1), *programs,
                   *(c.tolist() for c in columns))
        core.write_rows(path, ("minute", "i", "j", "x", "y", "a", "b",
                               "point"), rows)

    _emit(args, {"rounds": args.rounds}, results,
          extra_files=(("rounds.csv", write_rounds),))
    return 0


# ---------------------------------------------------------------------------
# homogeneity / breakdown

def _homogeneity_for(values, args) -> dict:
    """chi_square reads the raw stream; ks/runs read bin means when binned."""
    from . import stats
    if args.bins and len(values) < args.bins:
        raise ValueError(f"only {len(values)} values for --bins {args.bins}")
    binned = stats.bin_means(values, args.bins) if args.bins else values
    methods = stats.HOMOGENEITY_METHODS if args.method == "all" else (args.method,)
    return {m: stats.homogeneity_test(values, m, args.parts) if m == "chi_square"
            else stats.homogeneity_test(binned, m) for m in methods}


def cmd_homogeneity(args) -> int:
    import numpy as np
    from .core import read_events
    if args.per_setting and args.column == "setting_label":
        raise ValueError("--per-setting with --column setting_label tests a "
                         "constant: one setting's labels are all equal")
    events = _read(read_events, args.input, "events")
    if not len(events):
        raise ValueError("no events in input")
    column = events.outcome if args.column == "outcome" else events.setting
    values = column.astype(float)
    if args.per_setting:
        results = {str(lab): _homogeneity_for(values[events.setting == lab], args)
                   for lab in np.unique(events.setting).tolist()}
    else:
        results = _homogeneity_for(values, args)
    _emit(args, {"n_values": int(values.size)}, results)
    return 0


def _parse_breakdown_spec(d: dict):
    from . import stats
    try:
        raw = d["values"]  # the config loader may have eval'd "0,2" already
        parts = raw if isinstance(raw, (tuple, list)) else str(raw).split(",")
        values = tuple(float(v) for v in parts)
        regimes = []
        for chunk in str(d["regimes"]).split(";"):
            start, stop, probs = chunk.strip().split(":")
            regimes.append((int(start), int(stop),
                            tuple(float(p) for p in probs.split(","))))
        return stats.DriftingDeviceSpec(values, tuple(regimes))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"breakdown spec: {exc}")


def cmd_breakdown(args) -> int:
    from . import stats
    spec = (stats.default_breakdown_spec() if args.spec is None
            else _parse_breakdown_spec(_load_config(args.spec)))
    results = stats.breakdown_demo(spec, args.runs, args.run_len,
                                   _stream_of(args))
    _emit(args, {"runs": args.runs, "run_len": args.run_len}, results)
    return 0


# ---------------------------------------------------------------------------
# reproduce

def cmd_reproduce(args) -> int:
    from . import claims
    if args.target != "all" and args.target not in claims.TARGETS:
        raise ValueError(f"--target {args.target!r} is not all or one of "
                         f"{', '.join(claims.TARGETS)}")
    names = list(claims.TARGETS) if args.target == "all" else [args.target]
    checks = [c for name in names
              for c in claims.run(name, args.seed, args.stream)]
    n_pass = sum(1 for c in checks if c["passed"])
    results = {"checks": checks, "passed": n_pass, "total": len(checks)}
    _emit(args, {"n_targets": len(names)}, results)
    return 0 if n_pass == len(checks) else 1


# ---------------------------------------------------------------------------
# parser

def _add_common(sp) -> None:
    sp.add_argument("--seed", type=int, default=0,
                    help="base seed (default 0)")
    sp.add_argument("--stream", type=int, default=0,
                    help="stream key under the seed (default 0)")
    sp.add_argument("--config", help="key = value file of defaults")
    sp.add_argument("--out", help="directory for CSV and summary.json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bell-lab",
        description="Monte Carlo lab for finite-sample Bell statistics")
    parser.add_argument("--version", action="version",
                        version=f"bell-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate raw event streams")
    sp.add_argument("--model", choices=("singlet", "smeared", "contextual"),
                    required=True)
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--angles", default="0,0",
                    help="analyzer centers in radians, e.g. 0,0.7854")
    sp.add_argument("--half-width-a", type=float, default=0.0)
    sp.add_argument("--half-width-b", type=float, default=0.0)
    sp.add_argument("--jitter-weight", default="uniform",
                    choices=("uniform", "truncated_gaussian"))
    sp.add_argument("--x", type=int, default=0, help="contextual setting, side A")
    sp.add_argument("--y", type=int, default=0, help="contextual setting, side B")
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.add_argument("--tau0", type=float, default=1.0)
    sp.add_argument("--label-a", type=int, default=0)
    sp.add_argument("--label-b", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("pair", help="pair two event streams into trials")
    sp.add_argument("--events-a", required=True)
    sp.add_argument("--events-b", required=True)
    sp.add_argument("--pairing", required=True,
                    help="systematic:k, random:m or window:w")
    _add_common(sp)
    sp.set_defaults(func=cmd_pair)

    sp = sub.add_parser("estimate", help="statistics from a trials file")
    sp.add_argument("--input", required=True, help="trials CSV")
    sp.add_argument("--stat", required=True,
                    choices=("correlation", "covariance", "chsh",
                             "counter-chsh", "bell-counter", "eberhard"))
    sp.add_argument("--a-labels", default="0,1")
    sp.add_argument("--b-labels", default="0,1")
    sp.add_argument("--include-no-counts", action="store_true",
                    help="keep trials where a side shows 0")
    sp.add_argument("--strict", action="store_true",
                    help="exit 3 when the statistic is undefined")
    _add_common(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("qrc-gill", help="coin-subsample challenge campaign")
    sp.add_argument("--generator", default="uniform",
                    help="uniform, positive-boundary or point-mass:A,A',B,B'")
    sp.add_argument("--rows", type=int, default=3200)
    sp.add_argument("--runs", type=int, default=1000)
    _add_common(sp)
    sp.set_defaults(func=cmd_qrc_gill)

    sp = sub.add_parser("qrc-vongher", help="ball-protocol challenge campaign")
    sp.add_argument("--variant", choices=("strict", "missing-pairs",
                                          "partial-anticorr", "quantum"),
                    default="strict")
    sp.add_argument("--q", type=float, default=0.87,
                    help="d=0 disagreement probability for partial-anticorr")
    sp.add_argument("--p-a3-flip", type=float, default=0.0075)
    sp.add_argument("--p-b2-flip", type=float, default=1.0)
    sp.add_argument("--p-drop", type=float, default=0.1,
                    help="pair loss probability for missing-pairs")
    sp.add_argument("--pairs", type=int, default=800)
    sp.add_argument("--runs", type=int, default=1000)
    _add_common(sp)
    sp.set_defaults(func=cmd_qrc_vongher)

    sp = sub.add_parser("bellgame", help="play the guessing game")
    sp.add_argument("--strategy", choices=("fixed", "random", "scripted",
                                           "contextual", "quantum"),
                    required=True)
    sp.add_argument("--i", type=int, default=1, help="fixed program, side A")
    sp.add_argument("--j", type=int, default=1, help="fixed program, side B")
    sp.add_argument("--wobble", type=float, default=0.25)
    sp.add_argument("--script", default=None,
                    help="CSV of i,j,x,y rounds for the scripted strategy")
    sp.add_argument("--rounds", type=int, default=1000)
    _add_common(sp)
    sp.set_defaults(func=cmd_bellgame)

    sp = sub.add_parser("homogeneity", help="is one stream one experiment?")
    sp.add_argument("--input", required=True, help="events CSV")
    sp.add_argument("--column", choices=("outcome", "setting_label"),
                    default="outcome")
    sp.add_argument("--method", choices=("chi_square", "ks", "runs", "all"),
                    default="all")
    sp.add_argument("--parts", type=int, default=2)
    sp.add_argument("--bins", type=int, default=30,
                    help="bin-mean count for ks/runs (0 = raw values)")
    sp.add_argument("--per-setting", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_homogeneity)

    sp = sub.add_parser("breakdown", help="drifting-device significance demo")
    sp.add_argument("--runs", type=int, default=100)
    sp.add_argument("--run-len", type=int, default=100_000)
    sp.add_argument("--spec", default=None,
                    help="device spec file (values = ..., regimes = ...)")
    _add_common(sp)
    sp.set_defaults(func=cmd_breakdown)

    sp = sub.add_parser("reproduce", help="re-derive the headline numbers")
    sp.add_argument("--target", default="all",
                    help="all or one claims target (default all)")
    _add_common(sp)
    sp.set_defaults(func=cmd_reproduce)

    return parser, sub


def _config_defaults(cmd: str, parser, config: dict) -> dict:
    """Config values through each flag's type and choices, as argparse
    treats the flag itself; keys that are no flag of cmd are an error."""
    actions = {a.dest: a for a in parser._actions}
    bad = sorted(set(config) - set(actions))
    if bad:
        raise ValueError(f"config keys not understood by {cmd}: "
                         f"{', '.join(bad)}")
    out = {}
    for key, value in config.items():
        action = actions[key]
        if action.type is not None:
            try:
                value = action.type(str(value))
            except ValueError as exc:
                raise ValueError(f"config {key}: {exc}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config {key}: {value!r} is not one of "
                             f"{', '.join(map(str, action.choices))}")
        out[key] = value
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub = build_parser()
    cmd = next((tok for tok in argv if not tok.startswith("-")), None)
    try:
        if cmd in sub.choices:
            pre = argparse.ArgumentParser(add_help=False)
            pre.add_argument("--config")
            config = pre.parse_known_args(argv)[0].config
            if config:
                chosen = sub.choices[cmd]
                chosen.set_defaults(**_config_defaults(cmd, chosen,
                                                       _load_config(config)))
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: usage errors, --help, --version
        return exc.code if isinstance(exc.code, int) else CONFIG_ERROR
    except ValueError as exc:  # bad configuration, input or parameter
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
