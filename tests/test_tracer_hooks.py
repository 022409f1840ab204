"""The benchmark tracer's hooks still reach the engine.

``perfbench/spans.py`` swaps module attributes with ``setattr``. That works
as long as the name exists, even when the engine no longer calls it through
the module (say, through a local alias), and the layer then drops out of the
trace without an error. One small traced CLI run per policy shows that the
hooks fire.
"""
from __future__ import annotations

import importlib
from pathlib import Path

from collectsim import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CONFIG = """
scenario.area = {area}
scenario.speed = {speed}
scenario.reception_time = 1
scenario.snr_db = 20
scenario.collectors = {collectors}
sweep.loads = {loads}
policy.kinds = {policy}
run.messages = 300
run.seeds = {seeds}
"""

# policy -> (area, speed, collectors). The cell sweep on the small region is
# a pure reception queue; fcfs drives to each message; the four-collector
# fleet sweeps a 2 x 2 grid per subregion; tspn_cyclic plans a tour per batch
SCENARIOS = {
    "grid_partitioning": (4, 1, 1),
    "fcfs": (60, 10, 1),
    "multi_partitioning": (64, 10, 4),
    "tspn_cyclic": (60, 10, 1),
}


def _traced_cli_run(tmp_path, monkeypatch, policy, loads="0.5", seeds="1"):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    # a list of policies runs on the first one's scenario
    area, speed, collectors = SCENARIOS[policy.split(",")[0]]
    config = tmp_path / "mini.cfg"
    config.write_text(CONFIG.format(area=area, speed=speed,
                                    collectors=collectors, policy=policy,
                                    loads=loads, seeds=seeds))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "out")])
    assert code == 0
    steps = tracer.calls("engine.step_policy")
    assert steps == tracer.calls("policies.next_action") > 0
    assert tracer.counts["action.Receive"] >= 300
    return tracer


def test_tracer_hooks_fire_on_a_cli_run(tmp_path, monkeypatch):
    tracer = _traced_cli_run(tmp_path, monkeypatch, "grid_partitioning")
    # the sweep checks no range itself: every range check comes from the
    # engine's contract check
    receptions = tracer.counts["action.Receive"]
    assert tracer.counts["commmodel.in_range"] == receptions


def test_tracer_hooks_fire_on_fcfs(tmp_path, monkeypatch):
    tracer = _traced_cli_run(tmp_path, monkeypatch, "fcfs")
    assert tracer.counts["action.TravelTo"] > 0
    # fcfs also tests the range itself before each reception and each leg
    receptions = tracer.counts["action.Receive"]
    assert tracer.counts["commmodel.in_range"] > receptions


def test_tracer_hooks_fire_on_a_fleet(tmp_path, monkeypatch):
    tracer = _traced_cli_run(tmp_path, monkeypatch, "multi_partitioning")
    assert tracer.counts["action.TravelTo"] > 0
    receptions = tracer.counts["action.Receive"]
    assert tracer.counts["commmodel.in_range"] == receptions


def test_tracer_hooks_fire_on_tspn_cyclic(tmp_path, monkeypatch):
    tracer = _traced_cli_run(tmp_path, monkeypatch, "tspn_cyclic")
    # every plan builds a greedy tour, whose stops come from reception_point
    plans = tracer.calls("tspn.plan_tour")
    assert plans == tracer.calls("tspn.nn_tspn_tour") > 0
    assert tracer.counts["commmodel.reception_point"] > 0
    spans = importlib.import_module("spans")
    assert spans.tour_failures(tracer) == []


def test_tracer_hooks_fire_on_runs_sharing_arrival_draws(tmp_path,
                                                        monkeypatch):
    # the runs of one seed replay one set of arrival draws; each of the
    # 2 policies x 2 loads x 2 seeds still goes through the patched hooks
    tracer = _traced_cli_run(tmp_path, monkeypatch, "fcfs, grid_partitioning",
                             loads="0.3, 0.5", seeds="1, 2")
    assert tracer.calls("engine.run") == 2 * 2 * 2
    assert tracer.calls("engine.step_policy") == \
        tracer.calls("policies.next_action")
