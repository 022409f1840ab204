"""In-memory span tracing of collectsim from outside the package.

A span is (name, start, end, parent). Spans are recorded around calls into
each module's public functions by replacing those functions where the
caller looks them up, and a timing proxy wraps the policy handed to
``Simulation``. The per-event spans (``HOT``) number in the millions on a
sweep, so they are folded into per-name totals instead of being kept one by
one; a kept span's parent is then its nearest kept ancestor. Self time is a
span's duration minus the time its child spans cover.

Functions that take well under a microsecond (the reception geometry) are
only counted: timing them would cost more than they do.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter
from pathlib import Path

HOT = ("engine.step_policy", "policies.next_action", "policies.on_arrival")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()
        # (name, args, result) of the calls whose outputs are checked later
        self.results: list[tuple[str, tuple, object]] = []
        self._stack: list[list] = []  # open spans: [child seconds, index]

    def timed(self, name: str, fn, keep_result: bool = False):
        """``fn`` wrapped so that each call records a span."""
        clock = time.perf_counter
        stack, spans, results = self._stack, self.spans, self.results
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        hot = name in HOT

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if hot:
                index = parent
            else:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    spans[index] = (name, start, end, parent)
            if keep_result:
                results.append((name, args, result))
            return result

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped so that each call is counted, not timed."""
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- derived numbers

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (end - start) for span_name, start, end, _ in self.spans
                if span_name == name]

    def write(self, path: Path) -> None:
        """Kept spans as JSON lines, then one line of per-name totals and
        counts."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
            handle.write(json.dumps({"totals": self.totals,
                                     "counts": dict(self.counts)}) + "\n")


class TimedPolicy:
    """Policy proxy handed to ``Simulation``: times the three policy verbs
    and counts the actions the policy returns."""

    def __init__(self, policy, tracer: Tracer) -> None:
        self.name = policy.name
        self.attach = tracer.timed("policies.attach", policy.attach)
        self.on_arrival = tracer.timed("policies.on_arrival", policy.on_arrival)
        next_action = tracer.timed("policies.next_action", policy.next_action)
        counts = tracer.counts

        def counted_next_action(sim, collector_id):
            action = next_action(sim, collector_id)
            counts["action." + type(action).__name__] += 1
            return action

        self.next_action = counted_next_action


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route collectsim's calls through ``tracer`` while the block runs."""
    from collectsim import bounds, cli, engine, policies, tspn

    def traced_run(config, policy, stop=None):
        return engine.Simulation(config, TimedPolicy(policy, tracer),
                                 stop).run()

    t, c = tracer.timed, tracer.counted
    patches = [
        (cli, "run", t("engine.run", traced_run)),
        (cli, "trace_stats", t("stats.trace_stats", cli.trace_stats)),
        (cli, "pool_stats", t("stats.pool_stats", cli.pool_stats)),
        (cli, "bound_report", t("bounds.bound_report", cli.bound_report)),
        (engine, "step_policy", t("engine.step_policy", engine.step_policy)),
        (policies, "plan_tour",
         t("tspn.plan_tour", policies.plan_tour, keep_result=True)),
        (tspn, "nn_tspn_tour", t("tspn.nn_tspn_tour", tspn.nn_tspn_tour)),
        (tspn, "grid_cover_tour",
         t("tspn.grid_cover_tour", tspn.grid_cover_tour, keep_result=True)),
        (bounds, "expected_excess_distance",
         t("bounds.expected_excess_distance",
           bounds.expected_excess_distance)),
        (bounds, "build_grid",
         t("core.build_grid", bounds.build_grid, keep_result=True)),
        (policies, "build_grid",
         t("core.build_grid", policies.build_grid, keep_result=True)),
        (engine, "in_range", c("commmodel.in_range", engine.in_range)),
        (policies, "in_range", c("commmodel.in_range", policies.in_range)),
        (policies, "reception_point",
         c("commmodel.reception_point", policies.reception_point)),
        (tspn, "reception_point",
         c("commmodel.reception_point", tspn.reception_point)),
    ]
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def tour_failures(tracer: Tracer) -> list[str]:
    """Check every planned tour the trace kept: each message is received
    from a stop inside its reception disk, every message of the batch is
    received exactly once, and no grid-cover tour is longer than
    ``tour_cap``."""
    from collectsim.commmodel import in_range
    from collectsim.tspn import tour_cap

    failures = []
    for name, args, tour in tracer.results:
        if name == "tspn.plan_tour":
            messages, radius = args[0], args[2]
            where = {m.id: m.location for m in messages}
            received = [i for stop in tour.stops for i in stop.message_ids]
            if sorted(received) != sorted(where):
                failures.append(f"tour of {len(where)} messages receives "
                                f"{len(received)}")
            for stop in tour.stops:
                for i in stop.message_ids:
                    if i in where and not in_range(stop.point, where[i],
                                                   radius):
                        failures.append(f"message {i} received from outside "
                                        f"its disk")
        elif name == "tspn.grid_cover_tour":
            grid = args[1]
            cap = tour_cap(grid)
            if not tour.total_length <= cap * (1.0 + 1e-12):
                failures.append(f"grid-cover tour {tour.total_length:.6g} "
                                f"over cap {cap:.6g}")
    return failures


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile; 0 when nothing was measured."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, messages: int
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of one traced pass. ``messages`` is the
    completed simulated message count of the pass. A layer the workload
    never calls reports 0."""
    counts = tracer.counts
    arrivals = tracer.calls("policies.on_arrival")
    receptions = counts["action.Receive"]
    legs = counts["action.TravelTo"]
    events = arrivals + receptions + legs
    actions = tracer.calls("engine.step_policy")
    decisions = tracer.calls("policies.next_action")
    # the contract check is the step_policy span minus next_action, i.e. its
    # self time; the engine's own time is Simulation.run minus policy spans
    contract_s = tracer.self_s("engine.step_policy")
    engine_self_s = tracer.self_s("engine.run") + contract_s

    plans = [(args, tour) for name, args, tour in tracer.results
             if name == "tspn.plan_tour"]
    covers = {id(args[0]): tour.total_length
              for name, args, tour in tracer.results
              if name == "tspn.grid_cover_tour"}
    ratios = [tour.total_length / covers[id(args[0])] for args, tour in plans
              if covers.get(id(args[0]), 0.0) > 0.0]
    batches = [float(len(args[0])) for args, _ in plans]
    plan_s = tracer.total_s("tspn.plan_tour")
    report_s = tracer.total_s("bounds.bound_report")
    grids = [grid.num_cells for name, _, grid in tracer.results
             if name == "core.build_grid"]

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    durations = tracer.durations_ms
    return {
        "engine.events": (float(events), "count"),
        "engine.self_us_per_event": (1e6 * per(engine_self_s, events), "us"),
        "engine.contract_us_per_action": (1e6 * per(contract_s, actions),
                                          "us"),
        "policies.decisions": (float(decisions), "count"),
        "policies.self_us_per_decision":
            (1e6 * per(tracer.self_s("policies.next_action"), decisions),
             "us"),
        "policies.us_per_arrival":
            (1e6 * per(tracer.total_s("policies.on_arrival"), arrivals), "us"),
        "policies.travel_legs_per_msg": (per(legs, messages), "legs/msg"),
        "tspn.plan_calls": (float(len(plans)), "count"),
        "tspn.plan_ms_p50": (_quantile(durations("tspn.plan_tour"), 50), "ms"),
        "tspn.plan_ms_p99": (_quantile(durations("tspn.plan_tour"), 99), "ms"),
        "tspn.batch_p50": (_quantile(batches, 50), "msgs"),
        "tspn.batch_max": (max(batches, default=0.0), "msgs"),
        "tspn.nn_share":
            (per(tracer.total_s("tspn.nn_tspn_tour"), plan_s), "ratio"),
        "tspn.greedy_chosen_ratio":
            (per(sum(tour.method == "tspn" for _, tour in plans), len(plans)),
             "ratio"),
        "tspn.len_over_cover_mean": (per(sum(ratios), len(ratios)), "ratio"),
        "stats.trace_stats_ms":
            (1e3 * tracer.total_s("stats.trace_stats"), "ms"),
        "stats.pool_stats_ms": (1e3 * tracer.total_s("stats.pool_stats"), "ms"),
        "bounds.report_ms_p50":
            (_quantile(durations("bounds.bound_report"), 50), "ms"),
        "bounds.report_ms_p90":
            (_quantile(durations("bounds.bound_report"), 90), "ms"),
        "bounds.excess_share":
            (per(tracer.total_s("bounds.expected_excess_distance"), report_s),
             "ratio"),
        "core.build_grid_calls": (float(tracer.calls("core.build_grid")),
                                  "count"),
        "core.build_grid_ms_total":
            (1e3 * tracer.total_s("core.build_grid"), "ms"),
        "core.grid_cells_max": (float(max(grids, default=0)), "cells"),
        "commmodel.in_range_per_event":
            (per(counts["commmodel.in_range"], events), "calls/event"),
        "commmodel.reception_point_calls":
            (float(counts["commmodel.reception_point"]), "count"),
        "cli.self_s": (tracer.self_s("cli.main"), "s"),
    }


LAYER_SPANS = {
    "cli": ("cli.main",),
    "engine": ("engine.run", "engine.step_policy"),
    "policies": ("policies.attach", "policies.on_arrival",
                 "policies.next_action"),
    "tspn": ("tspn.plan_tour", "tspn.nn_tspn_tour", "tspn.grid_cover_tour"),
    "stats": ("stats.trace_stats", "stats.pool_stats"),
    "bounds": ("bounds.bound_report", "bounds.expected_excess_distance"),
    "core": ("core.build_grid",),
}


def self_time_by_layer(tracer: Tracer) -> dict[str, float]:
    """Seconds of self time per layer; they sum to the traced wall time of
    the CLI calls."""
    return {layer: sum(tracer.self_s(name) for name in names)
            for layer, names in LAYER_SPANS.items()}
