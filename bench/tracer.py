"""Per-layer tracing of an unmodified ``sgmeta`` from outside the program.

The tracer replaces public functions at every module name their callers look
up (``from .sibcore import sib_unroll`` binds ``sgmeta.trainer.sib_unroll``,
so each binding of the original object in any ``sgmeta`` module is patched).
Each call becomes a span: name, start, end, parent span, and a tag that is
the episode's ``task_seed`` when the call has an episode, the optimizer step
for backward/clip/Adam, and the parent's tag otherwise. Spans stay in memory
and are written out when the run ends.

Tape-node counts are taken at the same boundaries. The time spent counting,
the wrappers' own bookkeeping and the speed probe's samples are measured and
removed from the durations of every enclosing span. Times in the per-layer
metrics are normalised to the reference machine speed, like the end-to-end
ones.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

WORKLOADS_ALL = frozenset({"toy-train", "fewshot-train", "fewshot-analyze"})
TRAINING = frozenset({"toy-train", "fewshot-train"})
ANALYZE = frozenset({"fewshot-analyze"})

# (target, kind, workloads that must call it). ``kind`` selects the
# bookkeeping a call gets; a target missing from its module, or never called
# on a workload listed here, fails the traced run.
TARGETS = (
    ("sgmeta.cli.main", "cli", WORKLOADS_ALL),
    ("sgmeta.cli.echo_config", "io", WORKLOADS_ALL),
    ("sgmeta.trainer.save_checkpoint", "io", TRAINING),
    ("sgmeta.trainer.load_checkpoint", "io", ANALYZE),
    ("sgmeta.trainer.write_metrics_csv", "io", TRAINING),
    ("sgmeta.analysis.write_report_csv", "io", ANALYZE),
    ("sgmeta.analysis.write_report_json", "io", WORKLOADS_ALL),
    ("sgmeta.tasks.gen_spinning_lines", "gen", frozenset({"toy-train"})),
    ("sgmeta.tasks.gen_fewshot_episode", "gen", frozenset({"fewshot-train", "fewshot-analyze"})),
    ("sgmeta.tasks.resample_query_set", "gen", ANALYZE),
    ("sgmeta.trainer.make_theta0", "theta0", WORKLOADS_ALL),
    ("sgmeta.sibcore.sib_unroll", "unroll", WORKLOADS_ALL),
    ("sgmeta.sibcore.objective_noise", "objective", TRAINING),
    ("sgmeta.sibcore.data_term", "objective", TRAINING),
    ("sgmeta.sibcore.prior_term", "objective", WORKLOADS_ALL),
    ("sgmeta.diffcore.backward", "backward", TRAINING),
    ("sgmeta.trainer.train", "train", TRAINING),
    ("sgmeta.trainer.episode_objective", "episode", TRAINING),
    ("sgmeta.trainer.clip_global_norm", "clip", TRAINING),
    ("sgmeta.trainer.adam_step", "adam", TRAINING),
    ("sgmeta.trainer.evaluate", "evaluate", WORKLOADS_ALL),
    ("sgmeta.analysis.gen_gap", "analysis", ANALYZE),
    ("sgmeta.analysis.estimate_sigma", "analysis", ANALYZE),
    ("sgmeta.analysis.mi_for_sampler", "analysis", ANALYZE),
    ("sgmeta.analysis.mi_estimate", "analysis", ANALYZE),
)

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("tasks.gen_us_per_episode", "us"),
    ("tasks.episodes_generated", "count"),
    ("models.theta0_us_per_episode", "us"),
    ("models.theta0_nodes_per_episode", "count"),
    ("sibcore.unroll_us_per_episode", "us"),
    ("sibcore.unroll_nodes_per_episode", "count"),
    ("sibcore.unrolls", "count"),
    ("sibcore.objective_us_per_episode", "us"),
    ("diffcore.backward_us_per_step", "us"),
    ("diffcore.backward_nodes_per_step", "count"),
    ("diffcore.backward_us_per_node", "us"),
    ("trainer.loop_self_us_per_step", "us"),
    ("trainer.clip_us_per_step", "us"),
    ("trainer.adam_us_per_step", "us"),
    ("trainer.clip_frac", "ratio"),
    ("trainer.eval_us_per_episode", "us"),
    ("trainer.eval_self_us_per_episode", "us"),
    ("trainer.eval_share", "ratio"),
    ("analysis.self_us_per_trial", "us"),
    ("analysis.unrolls_per_trial", "count"),
    ("cli.io_ms", "ms"),
)
# Layer of each span kind, for the self-time shares.
LAYER_OF = {
    "cli": "cli", "io": "cli", "gen": "tasks", "theta0": "models",
    "unroll": "sibcore.unroll", "objective": "sibcore.objective", "backward": "diffcore",
    "train": "trainer", "episode": "trainer", "clip": "trainer", "adam": "trainer",
    "evaluate": "trainer", "analysis": "analysis",
}
# Metrics that are counts of work: identical on every traced run of one seed.
COUNT_METRICS = frozenset({
    "tasks.episodes_generated", "models.theta0_nodes_per_episode",
    "sibcore.unroll_nodes_per_episode", "sibcore.unrolls",
    "diffcore.backward_nodes_per_step", "trainer.clip_frac",
    "analysis.unrolls_per_trial",
})


def _arg(args, kwargs, index, name):
    """A call argument given positionally or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


class TraceError(RuntimeError):
    """A wrap target is missing, or a workload never called one it must call."""


@dataclass
class Span:
    name: str
    kind: str
    parent: int  # index into Tracer.spans, -1 for a root
    tag: object
    start: float = 0.0
    end: float = 0.0
    overhead: float = 0.0  # bookkeeping inside [start, end], excluded from duration
    nodes: int = 0
    units: int = 0  # episodes evaluated, trials, or clipped (0/1), by kind

    @property
    def duration(self) -> float:
        return self.end - self.start - self.overhead


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self._stack: list = []
        self._overhead = 0.0  # running total of bookkeeping time
        self._steps = 0
        self._patched: list = []  # (module, attribute, original)
        self._dc = None
        self._episode_type = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import sgmeta.diffcore as dc
        from sgmeta.tasks import Episode

        self._dc = dc
        self._episode_type = Episode
        if not callable(getattr(dc, "_topo_order", None)) or not callable(getattr(dc, "_make", None)):
            raise TraceError("sgmeta.diffcore._topo_order/_make not found: node counts unavailable")
        originals = []
        for target, kind, _ in TARGETS:
            mod_name, attr = target.rsplit(".", 1)
            original = getattr(importlib.import_module(mod_name), attr, None)
            if not callable(original):
                raise TraceError(f"wrap target {target} not found")
            originals.append((target, kind, original))
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "sgmeta" or n.startswith("sgmeta.")) and m is not None]
        for target, kind, original in originals:
            wrapper = self._wrap(target, kind, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def check_coverage(self) -> None:
        called = {s.name for s in self.spans}
        missing = [t for t, _, need in TARGETS if self.workload in need and t not in called]
        if missing:
            raise TraceError(f"{self.workload} never called wrap target(s): {', '.join(missing)}")

    # -- spans ---------------------------------------------------------------

    def _wrap(self, target: str, kind: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(target, kind, fn, args, kwargs)

        return traced

    def _tag(self, kind, args, parent):
        if kind == "backward":
            return ("step", self._steps)
        if kind in ("clip", "adam"):
            return ("step", self._steps - 1)
        for value in args:
            if isinstance(value, self._episode_type):
                return ("episode", value.task_seed)
        return self.spans[parent].tag if parent >= 0 else ("run", self.workload)

    def _call(self, target, kind, fn, args, kwargs):
        enter = time.perf_counter()
        parent = self._stack[-1] if self._stack else -1
        span = Span(target, kind, parent, self._tag(kind, args, parent))
        index = len(self.spans)
        self.spans.append(span)
        dc = self._dc
        if kind == "backward":
            span.nodes = len(dc._topo_order(_arg(args, kwargs, 0, "out")))
        elif kind == "evaluate":
            span.units = len(_arg(args, kwargs, 3, "episodes"))
        elif target == "sgmeta.analysis.gen_gap":
            span.units = int(_arg(args, kwargs, 3, "trials"))
        if kind == "theta0":
            original_make = dc._make

            def counting_make(*a):
                span.nodes += 1
                return original_make(*a)

            dc._make = counting_make
        self._stack.append(index)
        span.start = time.perf_counter()
        self._overhead += span.start - enter
        inner_start = self._overhead
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if kind == "theta0":
                dc._make = original_make
        span.overhead = self._overhead - inner_start
        if kind == "unroll":
            theta_k = result[0]
            span.nodes = len(dc._topo_order(theta_k)) if theta_k.requires_grad else 0
        elif kind == "clip":
            max_norm = _arg(args, kwargs, 1, "max_norm")
            span.units = int(max_norm > 0 and result[1] > max_norm)
        elif kind == "backward":
            self._steps += 1
        if isinstance(result, self._episode_type):
            span.tag = ("episode", result.task_seed)
        self._overhead += time.perf_counter() - span.end
        return result

    def exclude(self, time_within) -> None:
        """Remove time that is not the program's from every span:
        ``time_within(start, end)`` is that time between two clock readings."""
        for s in self.spans:
            s.overhead += time_within(s.start, s.end)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "tag": list(s.tag),
                    "start": s.start, "end": s.end, "duration": s.duration,
                    "nodes": s.nodes, "units": s.units,
                }) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def _self_times(self) -> list:
        """Each span's duration minus the durations of its children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def metrics(self, time_scale: float = 1.0) -> dict:
        """The per-layer metrics; times are multiplied by ``time_scale``."""
        spans = self.spans
        own = self._self_times()

        def self_time(i):
            return own[i]

        def under(i, kind):
            p = spans[i].parent
            while p >= 0:
                if spans[p].kind == kind:
                    return True
                p = spans[p].parent
            return False

        by_kind: dict = {}
        for i, s in enumerate(spans):
            by_kind.setdefault(s.kind, []).append(i)

        def total(kind, fn=lambda i: spans[i].duration, where=lambda i: True):
            return sum(fn(i) for i in by_kind.get(kind, []) if where(i))

        def count(kind, where=lambda i: True):
            return sum(1 for i in by_kind.get(kind, []) if where(i))

        def per(num, den):
            return num / den if den else 0.0

        us = 1e6 * time_scale
        n_gen = count("gen")
        n_theta0 = count("theta0")
        n_unroll = count("unroll")
        n_episode = count("episode")
        n_backward = count("backward")
        n_steps = count("clip")
        eval_episodes = total("evaluate", lambda i: spans[i].units)
        trials = total("analysis", lambda i: spans[i].units)
        backward_nodes = total("backward", lambda i: spans[i].nodes)
        backward_time = total("backward")
        cli_time = total("cli")
        return {
            "tasks.gen_us_per_episode": us * per(total("gen"), n_gen),
            "tasks.episodes_generated": n_gen,
            "models.theta0_us_per_episode": us * per(total("theta0"), n_theta0),
            "models.theta0_nodes_per_episode": per(total("theta0", lambda i: spans[i].nodes), n_theta0),
            "sibcore.unroll_us_per_episode": us * per(total("unroll"), n_unroll),
            "sibcore.unroll_nodes_per_episode": per(total("unroll", lambda i: spans[i].nodes), n_unroll),
            "sibcore.unrolls": n_unroll,
            "sibcore.objective_us_per_episode": us * per(
                total("objective", where=lambda i: spans[i].parent >= 0
                      and spans[spans[i].parent].kind == "episode"), n_episode),
            "diffcore.backward_us_per_step": us * per(backward_time, n_backward),
            "diffcore.backward_nodes_per_step": per(backward_nodes, n_backward),
            "diffcore.backward_us_per_node": us * per(backward_time, backward_nodes),
            "trainer.loop_self_us_per_step": us * per(
                total("train", self_time) + total("episode", self_time), n_steps),
            "trainer.clip_us_per_step": us * per(total("clip"), n_steps),
            "trainer.adam_us_per_step": us * per(total("adam"), n_steps),
            "trainer.clip_frac": per(total("clip", lambda i: spans[i].units), n_steps),
            "trainer.eval_us_per_episode": us * per(total("evaluate"), eval_episodes),
            "trainer.eval_self_us_per_episode": us * per(total("evaluate", self_time), eval_episodes),
            "trainer.eval_share": per(total("evaluate"), cli_time),
            "analysis.self_us_per_trial": us * per(total("analysis", self_time), trials),
            "analysis.unrolls_per_trial": per(
                count("unroll", where=lambda i: under(i, "analysis")), trials),
            "cli.io_ms": 1e3 * time_scale * total("io"),
        }

    def shares(self) -> dict:
        """Each layer's self time as a share of the command's wall time."""
        by_layer: dict = {}
        for s, t in zip(self.spans, self._self_times()):
            by_layer[LAYER_OF[s.kind]] = by_layer.get(LAYER_OF[s.kind], 0.0) + t
        total = sum(s.duration for s in self.spans if s.parent < 0)
        return {layer: t / total for layer, t in sorted(by_layer.items())}
