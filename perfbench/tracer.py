"""Outside-in tracing of bell_lab's public functions.

The tracer replaces each target function, at every name under which a
``bell_lab`` module can look it up (``cli.read_events`` as well as
``core.read_events``, ``randi.run_indexed`` as well as
``core.run_indexed``), with a wrapper that records a span: id, parent
id, name, start and end.  Spans live in memory until the traced pass
ends; ``uninstall`` puts every original back.

``run_indexed`` gets a wrapper of its own: each task it hands to the
pool runs inside a task span whose parent is the ``run_indexed`` span,
so spans opened on pool threads hang under the call that dispatched
them instead of floating free.  A task span is named after the function
that defined the task, ``stats.breakdown_demo.task`` for the per-run
closure of ``breakdown_demo``, and its self time counts toward that
function's ``self_s``: the closure is that function's own code.

Self time is wall time apportioned to the leaves of the open-span tree:
at each instant, the spans that are open and have no open child share
the instant equally.  A ``run_indexed`` span is a leaf only while none
of its tasks runs, so its self time is dispatch plus waiting; two tasks
running at once on two threads each get half of that interval.  Self
times therefore add up to the root span's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

PACKAGE = "bell_lab"
ROOT = "perfbench.pass"
TASK_SUFFIX = ".task"

# the public functions the per-layer metrics read, as module.attribute
TARGETS = (
    "core.read_events", "core.read_trials", "core.write_events",
    "core.write_trials", "core.run_indexed", "core.RngStream.generator",
    "sources.generate_cfd_spreadsheet", "sources.generate_tennis_balls",
    "sources.singlet_pairs", "sources.smeared_pairs", "sources.contextual_batch",
    "pairing.pair_time_window", "pairing.pair_systematic",
    "pairing.pair_random", "pairing.covariance",
    "estimators.chsh", "estimators.correlation", "estimators.chsh_from_arrays",
    "estimators.vongher_counters_from_arrays",
    "estimators.correlation_from_arrays",
    "randi.gill_campaign", "randi.vongher_campaign", "randi.gill_subsample",
    "randi.vongher_run", "randi.quantum_ball_outcomes", "randi.measure_balls",
    "bellgame.play_game",
    "stats.breakdown_demo", "stats.homogeneity_test",
    "cli.main", "cli._emit", "cli.cmd_simulate", "cli.cmd_pair",
    "cli.cmd_estimate", "cli.cmd_homogeneity", "cli.cmd_qrc_gill",
    "cli.cmd_qrc_vongher", "cli.cmd_breakdown", "cli.cmd_reproduce",
)


def task_name(fn) -> str:
    """``<module>.<defining function>.task`` for a task handed to run_indexed."""
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__qualname__.split('.<locals>')[0]}{TASK_SUFFIX}"


def _file_bytes(args, kwargs) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _window_counts(trials) -> dict:
    from bell_lab.pairing import UNPAIRED_SETTING
    n = coincident = unmatched_a = unmatched_b = 0
    for t in trials:
        n += 1
        coincident += t.coincident
        unmatched_a += t.setting_b == UNPAIRED_SETTING
        unmatched_b += t.setting_a == UNPAIRED_SETTING
    return {"pairing.pair_time_window.trials": n,
            "pairing.pair_time_window.coincident": coincident,
            "pairing.pair_time_window.unmatched_a": unmatched_a,
            "pairing.pair_time_window.unmatched_b": unmatched_b}


class Tracer:
    """Wraps the targets, records spans and counts, and restores the originals."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans = []          # (id, parent id, name, start ns, end ns)
        self.counts = Counter()
        self.absent = []         # targets this version of the program lacks
        self._windows = []       # pair_time_window results, counted later
        self._patches = []       # (owner, attribute, original)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._max_workers = 0

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, parent=None):
        """Run fn(*args, **kwargs) inside a span named name."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap(self, name: str, fn):
        after = self._after(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _wrap_run_indexed(self, name: str, fn):
        @functools.wraps(fn)
        def traced(task_fn, *args, **kwargs):
            sid_box = []
            threads = set()
            task_span = task_name(task_fn)

            def task(i):
                threads.add(threading.get_ident())
                return self.call(task_span, task_fn, (i,), parent=sid_box[0])

            def dispatch():
                sid_box.append(self._stack()[-1])
                return fn(task, *args, **kwargs)

            result = self.call(name, dispatch)
            self._max_workers = max(self._max_workers, len(threads))
            return result
        return traced

    def _after(self, name: str):
        """Counts taken where the layer returns; run after its span closes."""
        if name in ("core.read_events", "core.read_trials",
                    "core.write_events", "core.write_trials"):
            def csv_bytes(args, kwargs, result):
                self.counts["core.csv.bytes"] += _file_bytes(args, kwargs)
            return csv_bytes
        if name == "pairing.pair_time_window":
            # counted after the pass, so the walk over trials is not timed
            return lambda args, kwargs, result: self._windows.append(result)
        if name == "bellgame.play_game":
            def rounds(args, kwargs, result):
                self.counts["bellgame.play_game.rounds"] += (
                    args[1] if len(args) > 1 else kwargs["rounds"])
            return rounds
        return None

    # -- install / restore ---------------------------------------------

    def _modules(self) -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every target at every module-level name that holds it."""
        modules = self._modules()
        for target in self.targets:
            mod_name, *path = target.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(target)
                continue
            make = (self._wrap_run_indexed if target == "core.run_indexed"
                    else self._wrap)
            wrapper = make(target, original)
            if len(path) > 1:  # a method: patch the class attribute
                owners = [(owner, path[-1])]
            else:
                owners = [(m, key) for m in modules
                          for key, value in vars(m).items() if value is original]
            for obj, key in owners:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first, and check it stuck."""
        restored = []
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)
            restored.append((obj, key, original))
        left = [key for obj, key, original in restored
                if getattr(obj, key) is not original]
        if left:
            raise RuntimeError(f"tracer left wrappers in place: {left}")

    # -- results -------------------------------------------------------

    def finish(self) -> None:
        """Count the pairings' trials; call once the traced pass is over."""
        for trials in self._windows:
            self.counts.update(_window_counts(trials))
        self._windows.clear()
        self.counts["core.run_indexed.workers"] = self._max_workers

    def self_times(self) -> dict:
        """Span id -> self time in ns (see the module docstring)."""
        parent_of = {sid: parent for sid, parent, _, _, _ in self.spans}
        events = []
        for sid, _, _, t0, t1 in self.spans:
            events.append((t0, 0, sid))     # starts first, parents first
            events.append((t1, 1, -sid))    # ends next, children first
        events.sort()
        open_children = Counter()
        is_open = set()
        leaves = set()
        own = defaultdict(float)
        prev = None
        for t, kind, key in events:
            if prev is not None and t > prev and leaves:
                share = (t - prev) / len(leaves)
                for s in leaves:
                    own[s] += share
            prev = t
            sid = key if kind == 0 else -key
            parent = parent_of[sid]
            if kind == 0:
                is_open.add(sid)
                leaves.add(sid)
                if parent in is_open:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                is_open.discard(sid)
                leaves.discard(sid)
                if parent in is_open:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        return own

    def write(self, path) -> None:
        """Spans as JSON lines, times in ns from the first span's start."""
        own = self.self_times()
        t_first = min((t0 for _, _, _, t0, _ in self.spans), default=0)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0 - t_first, "end": t1 - t_first,
                                     "self": round(own[sid])}) + "\n")

    def metrics(self) -> dict:
        """Per-name self time, calls, task totals and the counts, in seconds."""
        own = self.self_times()
        out = defaultdict(float)
        out["core.run_indexed.task_s"] = 0.0
        out["core.run_indexed.tasks"] = 0
        for target in self.targets:
            out[f"{target}.self_s"] = 0.0
            out[f"{target}.calls"] = 0
        for sid, _, name, t0, t1 in self.spans:
            if name.endswith(TASK_SUFFIX):
                out["core.run_indexed.task_s"] += (t1 - t0) / 1e9
                out["core.run_indexed.tasks"] += 1
                name = name[:-len(TASK_SUFFIX)]
            else:
                out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own[sid] / 1e9
        for key in ("core.csv.bytes", "bellgame.play_game.rounds",
                    "core.run_indexed.workers"):
            out[key] = self.counts[key]
        trials = self.counts["pairing.pair_time_window.trials"]
        out["pairing.pair_time_window.coincident_ratio"] = (
            self.counts["pairing.pair_time_window.coincident"] / trials
            if trials else 0.0)
        for side in ("a", "b"):
            key = f"pairing.pair_time_window.unmatched_{side}"
            out[key] = self.counts[key]
        roots = [t1 - t0 for _, parent, _, t0, t1 in self.spans if parent is None]
        out["trace.root_s"] = sum(roots) / 1e9
        out["trace.self_sum_s"] = sum(own.values()) / 1e9
        out["trace.spans"] = len(self.spans)
        return dict(out)
