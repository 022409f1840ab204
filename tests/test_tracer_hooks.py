"""The benchmark tracer's hooks still reach the engine.

``perfbench/spans.py`` swaps module attributes with ``setattr``. That works
as long as the name exists, even when the engine no longer calls it through
the module (say, through a local alias), and the layer then drops out of the
trace without an error. One small traced CLI run shows that the hooks fire.
"""
from __future__ import annotations

import importlib
from pathlib import Path

from collectsim import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# a pure reception queue under the cell sweep, which checks no range
# itself: every range check comes from the engine's contract check
CONFIG = """
scenario.area = 4
scenario.speed = 1
scenario.reception_time = 1
scenario.snr_db = 20
sweep.loads = 0.5
policy.kinds = grid_partitioning
run.messages = 300
run.seeds = 1
"""


def test_tracer_hooks_fire_on_a_cli_run(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    config = tmp_path / "mini.cfg"
    config.write_text(CONFIG)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "out")])
    assert code == 0
    steps = tracer.calls("engine.step_policy")
    assert steps == tracer.calls("policies.next_action") > 0
    receptions = tracer.counts["action.Receive"]
    assert tracer.counts["commmodel.in_range"] == receptions >= 300
