"""Config parsing, experiment runner and table output."""
from __future__ import annotations

import csv
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from collectsim import cli
from collectsim.cli import (BOUNDS_COLUMNS, KEYS, MESSAGE_COLUMNS,
                            RESULT_COLUMNS, ExperimentSpec, atomic_write_text,
                            bounds_table, build_spec, db_to_linear, dump_messages,
                            load_spec, main, parse_config_text, run_cells,
                            run_experiment, scenario_config, trace_run)
from collectsim.commmodel import reception_radius
from collectsim.core import ConfigurationError
from collectsim.engine import StopRule, run as engine_run
from collectsim.policies import PolicyKind, make_policy

from matrixlib import case2_config, fleet_config

MINI = """
# covered-by-one-disk region: a pure reception queue, fast to simulate
scenario.area = 4
scenario.speed = 1
scenario.reception_time = 1
scenario.snr_db = 20
sweep.loads = {loads}
policy.kinds = {policies}
run.messages = {messages}
run.seeds = {seeds}
"""


def _mini(loads="0.3, 0.5", policies="grid_partitioning", messages=2500,
          seeds="1, 2") -> ExperimentSpec:
    return build_spec(parse_config_text(
        MINI.format(loads=loads, policies=policies, messages=messages,
                    seeds=seeds)))


def _read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


# -- parsing --------------------------------------------------------------------


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(17.0) == pytest.approx(10.0 ** 1.7)
    assert db_to_linear(-3.0) == pytest.approx(0.5011872336)


def test_parse_config_text_grammar():
    text = """
    # full-line comment
    scenario.area = 60   # trailing comment
    scenario.speed=10
      sweep.loads   =  0.3,0.5
    """
    mapping = parse_config_text(text)
    assert mapping == {"scenario.area": "60", "scenario.speed": "10",
                       "sweep.loads": "0.3,0.5"}


def test_parse_config_text_reports_line_numbers():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config_text("scenario.area = 60\nnot a key value line\n")
    with pytest.raises(ConfigurationError, match="line 3.*duplicate"):
        parse_config_text("scenario.area = 60\n\nscenario.area = 70\n")
    with pytest.raises(ConfigurationError, match="empty key"):
        parse_config_text("= 60\n")


def test_build_spec_applies_defaults():
    spec = _mini()
    assert spec.snr_threshold == 2.0
    assert spec.path_loss == 4.0
    assert spec.collectors == 1
    assert spec.warmup == 0.2
    assert spec.seeds == (1, 2)
    assert spec.loads == (0.3, 0.5)
    assert spec.policies == (PolicyKind.GRID_PARTITIONING,)
    assert spec.snr_db_sweep == ()


@pytest.mark.parametrize("mutation,message", [
    ("bogus.key = 1", "unknown configuration key"),
    ("sweep.loads = 1.3", "outside"),
    ("sweep.loads = 0", "outside"),
    ("sweep.loads = -0.2", "outside"),
    ("run.messages = 0", "must lie in"),
    ("run.messages = 200001", "must lie in"),
    ("run.warmup = 1.0", "must lie in"),
    ("run.seeds = -3", "negative"),
    ("run.seeds =", "at least one seed"),
    ("sweep.loads =", "at least one load"),
    ("run.seeds = 1, 1", "run.seeds: entries must be distinct"),
    ("sweep.loads = 0.5, 0.5", "sweep.loads: entries must be distinct"),
    ("policy.kinds = grid_partitioning, grid_partitioning",
     "policy.kinds: entries must be distinct"),
    ("policy.kinds = teleport", "policy.kinds"),
    ("policy.kinds = teleport", "policy.kinds: expected one of fcfs, "),
    ("policy.inner = grid_partitioning", "unknown configuration key"),
    ("scenario.area = sixty", "expected a number"),
    ("run.messages = many", "expected an integer"),
])
def test_build_spec_rejects(mutation, message):
    key = mutation.split("=")[0].strip()
    base = "\n".join(line for line in MINI.format(
        loads="0.5", policies="grid_partitioning", messages=1000,
        seeds="1").splitlines() if not line.strip().startswith(key))
    with pytest.raises(ConfigurationError, match=message):
        build_spec(parse_config_text(base + "\n" + mutation))


def test_build_spec_requires_keys():
    with pytest.raises(ConfigurationError, match="required key is missing"):
        build_spec({"scenario.area": "4"})


def test_build_spec_fails_fast_on_scenario_errors():
    text = MINI.format(loads="0.5", policies="grid_partitioning",
                       messages=1000, seeds="1")
    text = text.replace("scenario.area = 4", "scenario.area = -4")
    with pytest.raises(ConfigurationError, match="area"):
        build_spec(parse_config_text(text))
    # path_loss outside the physical range is caught the same way
    with pytest.raises(ConfigurationError, match="path_loss"):
        build_spec(parse_config_text(
            MINI.format(loads="0.5", policies="grid_partitioning",
                        messages=1000, seeds="1")
            + "scenario.path_loss = 7\n"))


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read config"):
        load_spec(tmp_path / "nope.cfg")


def test_scenario_config_derives_arrival_rate():
    spec = _mini(loads="0.6", seeds="5")
    cfg = scenario_config(spec, 0.6, 5)
    assert cfg.arrival_rate == pytest.approx(0.6 * 1 / 1.0)
    assert cfg.seed == 5
    assert cfg.snr_ref == pytest.approx(100.0)
    # per-collector load scales the rate with the fleet size
    fleet = build_spec(parse_config_text("""
        scenario.area = 100
        scenario.speed = 1
        scenario.reception_time = 1
        scenario.snr_db = 27
        scenario.collectors = 4
        policy.kinds = multi_partitioning
        sweep.loads = 0.6
        run.seeds = 1
    """))
    fcfg = scenario_config(fleet, 0.6, 1)
    assert fcfg.arrival_rate == pytest.approx(2.4)
    assert fcfg.load == pytest.approx(0.6)
    # snr override hook used by the bounds sweep
    assert scenario_config(spec, 0.6, 5, snr_db=30.0).snr_ref == \
        pytest.approx(1000.0)


# -- atomic writes -----------------------------------------------------------------


def test_atomic_write_creates_parents(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write_text(target, "payload")
    assert target.read_text() == "payload"
    assert list(target.parent.glob("*.tmp")) == []


def test_atomic_write_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"

    def boom(src, dst):
        raise OSError("injected failure")

    monkeypatch.setattr(cli.os, "replace", boom)
    with pytest.raises(OSError, match="injected"):
        atomic_write_text(target, "payload")
    monkeypatch.undo()
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # temp file cleaned up


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "old")
    atomic_write_text(target, "new")
    assert target.read_text() == "new"


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600),
                                        (0o002, 0o664)],
                         ids=lambda bits: f"{bits:03o}")
def test_atomic_write_gives_a_plain_write_mode(tmp_path, umask, mode):
    saved = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", "payload")
        (tmp_path / "plain.txt").write_text("payload")
    finally:
        os.umask(saved)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode
    assert (tmp_path / "plain.txt").stat().st_mode & 0o777 == mode


# -- experiment runner -----------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_results(tmp_path_factory):
    spec = _mini(loads="0.3, 0.5", policies="grid_partitioning,fcfs",
                 messages=2500, seeds="1, 2")
    out_dir = tmp_path_factory.mktemp("results")
    path = run_experiment(spec, out_dir)
    return spec, path


def test_results_table_layout(mini_results):
    spec, path = mini_results
    assert path.name == "results.csv"
    header, rows = _read_csv(path)
    assert tuple(header) == RESULT_COLUMNS
    # one row per (policy, load), policies outer, loads inner
    assert [(r["policy"], r["load"]) for r in rows] == [
        ("grid_partitioning", "0.3"), ("grid_partitioning", "0.5"),
        ("fcfs", "0.3"), ("fcfs", "0.5")]
    for r in rows:
        assert r["collectors"] == "1"
        assert r["seeds"] == "1;2"
        assert r["messages"] == str(2 * (2500 - 500))
        assert r["stability"] == "stable"


def test_results_values_are_six_significant_digits(mini_results):
    _, path = mini_results
    _, rows = _read_csv(path)
    for r in rows:
        for col in ("mean_delay", "single_lb", "pk_wait", "rho_measured"):
            mantissa = r[col].replace(".", "").replace("-", "").lstrip("0")
            mantissa = mantissa.split("e")[0]
            assert len(mantissa) <= 6, (col, r[col])


def test_results_bound_columns_match_formulas(mini_results):
    spec, path = mini_results
    _, rows = _read_csv(path)
    from collectsim.bounds import (partitioning_delay, pk_mg1_wait,
                                   single_collector_lb)

    for r in rows:
        load = float(r["load"])
        cfg = scenario_config(spec, load, spec.seeds[0])
        assert float(r["pk_wait"]) == pytest.approx(
            pk_mg1_wait(cfg.arrival_rate, cfg.reception_time), rel=1e-5)
        assert float(r["single_lb"]) == pytest.approx(
            single_collector_lb(cfg), rel=1e-5)
        assert float(r["partitioning_delay"]) == pytest.approx(
            partitioning_delay(cfg), rel=1e-5)
        # one collector: the m-collector sweep column equals the single sweep
        assert float(r["multi_partitioning_delay"]) == pytest.approx(
            partitioning_delay(cfg), rel=1e-5)


def test_results_bound_columns_identical_across_policies(mini_results):
    _, path = mini_results
    _, rows = _read_csv(path)
    bound_cols = RESULT_COLUMNS[17:]
    by_load: dict[str, list] = {}
    for r in rows:
        by_load.setdefault(r["load"], []).append([r[c] for c in bound_cols])
    for load, cells in by_load.items():
        assert all(c == cells[0] for c in cells[1:]), load


def test_results_ratio_column_arithmetic(mini_results):
    _, path = mini_results
    _, rows = _read_csv(path)
    for r in rows:
        expected = float(r["mean_delay"]) / float(r["single_lb"])
        assert float(r["delay_over_bound"]) == pytest.approx(expected,
                                                             rel=1e-4)
        # this scenario is a pure reception queue: the simulated delay can
        # sit at most a whisker above the queueing lower bound
        assert 0.97 <= float(r["delay_over_bound"]) <= 1.1


def test_results_measured_load_tracks_nominal(mini_results):
    _, path = mini_results
    _, rows = _read_csv(path)
    for r in rows:
        assert float(r["rho_measured"]) == pytest.approx(float(r["load"]),
                                                         rel=0.10)


def test_rerun_is_byte_identical(tmp_path):
    spec = _mini(loads="0.4", messages=1500, seeds="1, 2")
    a = run_experiment(spec, tmp_path / "a")
    b = run_experiment(spec, tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()


def test_parallel_equals_serial(tmp_path):
    spec = _mini(loads="0.4", messages=1500, seeds="1, 2")
    serial = run_experiment(spec, tmp_path / "serial", parallel=1)
    parallel = run_experiment(spec, tmp_path / "parallel", parallel=2)
    assert serial.read_bytes() == parallel.read_bytes()


def test_run_cells_parallel_equals_serial():
    # the acceptance matrix's path: cells of two seeds and of one, a fleet
    # job and a stop rule whose divergence threshold fires, in job order
    grid = PolicyKind.GRID_PARTITIONING
    jobs = [(case2_config(0.5, seed), grid, StopRule(max_messages=1200), 0.2)
            for seed in (1, 2)]
    jobs.append((fleet_config(0.5, 3), PolicyKind.MULTI_PARTITIONING,
                 StopRule(max_messages=1200), 0.2))
    jobs.append((case2_config(1.1, 4), PolicyKind.FCFS,
                 StopRule(max_messages=1200, divergence_threshold=30.0), 0.2))
    serial = run_cells(jobs, parallel=1)
    assert [p.seed for p in serial] == [1, 2, 3, 4]
    assert serial[-1].verdict == "diverged"
    assert run_cells(jobs, parallel=2) == serial


def test_run_experiment_empty_loads_writes_header_only(tmp_path):
    # a config cannot leave sweep.loads empty; a library caller can
    spec = replace(_mini(loads="0.5", messages=1000, seeds="1"), loads=())
    out = run_experiment(spec, tmp_path)
    assert out.read_text() == ",".join(RESULT_COLUMNS) + "\n"


def test_multi_collector_cell_uses_fleet_bound(tmp_path):
    text = """
    scenario.area = 100
    scenario.speed = 1
    scenario.reception_time = 1
    scenario.snr_db = 27
    scenario.collectors = 4
    policy.kinds = multi_partitioning
    sweep.loads = 0.4
    run.messages = 1600
    run.seeds = 3
    """
    spec = build_spec(parse_config_text(text))
    out = run_experiment(spec, tmp_path)
    _, rows = _read_csv(out)
    assert len(rows) == 1
    r = rows[0]
    assert r["collectors"] == "4"
    expected = float(r["mean_delay"]) / float(r["multi_lb_avg"])
    assert float(r["delay_over_bound"]) == pytest.approx(expected, rel=1e-4)


# -- bounds-only tables ------------------------------------------------------------------


def test_bounds_table_with_snr_sweep(tmp_path):
    text = """
    scenario.area = 200
    scenario.speed = 1
    scenario.reception_time = 1
    scenario.snr_db = 17
    sweep.loads = 0.3, 0.6, 0.9
    sweep.snr_db = 10, 17, 24
    """
    spec = build_spec(parse_config_text(text))
    out = bounds_table(spec, tmp_path)
    assert out.name == "bounds.csv"
    header, rows = _read_csv(out)
    assert tuple(header) == BOUNDS_COLUMNS
    assert len(rows) == 9
    for r in rows:
        db = float(r["snr_db"])
        assert float(r["reception_radius"]) == pytest.approx(
            reception_radius(db_to_linear(db), 2.0, 4.0), rel=1e-5)
    # a stronger link means a larger disk and a lower travel bound at every load
    for load in ("0.3", "0.6", "0.9"):
        by_snr = [float(r["single_lb"]) for r in rows if r["load"] == load]
        assert by_snr == sorted(by_snr, reverse=True)
        radii = [float(r["reception_radius"]) for r in rows
                 if r["load"] == load]
        assert radii == sorted(radii)


def test_bounds_table_without_sweep_uses_scenario_snr(tmp_path):
    spec = _mini(loads="0.5", messages=1000, seeds="1")
    out = bounds_table(spec, tmp_path)
    _, rows = _read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["snr_db"]) == 20.0


# -- per-message dumps ----------------------------------------------------------------------


def test_trace_run_dumps_messages(tmp_path):
    spec = _mini(loads="0.5", policies="fcfs", messages=800, seeds="9")
    out = trace_run(spec, tmp_path)
    assert out.name == "messages.csv"
    header, rows = _read_csv(out)
    assert tuple(header) == MESSAGE_COLUMNS
    assert len(rows) == 800
    departures = [float(r["departure_time"]) for r in rows]
    assert departures == sorted(departures)
    # FCFS on a fully covered region serves strictly in arrival order
    assert [int(r["id"]) for r in rows] == list(range(800))
    for r in rows:
        # the dump keeps 12 significant digits, so times of magnitude ~1e3
        # carry rounding of order 1e-8; the identity must hold to that scale
        total = float(r["departure_time"]) - float(r["arrival_time"])
        parts = (float(r["wait_travel"]) + float(r["wait_service"])
                 + spec.reception_time)
        assert total == pytest.approx(parts, abs=1e-7)


PINNED_SCENARIOS = {
    "case2": """
scenario.area = 60
scenario.speed = 10
scenario.reception_time = 2
scenario.snr_db = 17
sweep.loads = 0.5
policy.kinds = grid_partitioning
run.messages = 2000
run.seeds = 1
""",
    "fleet": """
scenario.area = 500
scenario.speed = 1
scenario.reception_time = 2
scenario.snr_db = 20
scenario.collectors = 4
sweep.loads = 0.5
policy.kinds = multi_partitioning
run.messages = 2000
run.seeds = 1
""",
}
# the other single-collector policies on the case2 scenario, at a smaller
# budget; their message dumps pin every event the engine handled
for _kind in ("fcfs", "fcfs_return", "tspn_cyclic"):
    PINNED_SCENARIOS[_kind] = PINNED_SCENARIOS["case2"].replace(
        "grid_partitioning", _kind).replace("2000", "500")

# sha256 of the written tables. A change that is meant to alter the simulated
# stream or the table format updates these and says why in CHANGES.md; any
# other change must leave them alone.
PINNED_SHA256 = {
    ("case2", "run"):
        "e7872fc1a1c4e11ed33ed724f6ea02c105dcd2b59a9beb241890d54aff2a153c",
    ("case2", "trace"):
        "f21c8197b66daa54300f23fc24d87e3f01976e4bbd7c3c0bfa51413797f131af",
    ("fleet", "run"):
        "c0326b243421e82d67c8da2469b652929bc4126be8b9e4193bfdd9cc1ac0a864",
    ("fleet", "trace"):
        "cf9e4a7a39abbd87a48a37eb1b3a66fcc2a782b549e7475d8744902440e7de43",
    ("fcfs", "trace"):
        "888fcc20c8258473c6a0df4014f8b216da68d438a326491ddcf6d534bd4cfd51",
    ("fcfs_return", "trace"):
        "af8815b78b8b617c4f9498d84211481a88b7f8f59519b4601f7ae0753cfe00f2",
    ("tspn_cyclic", "trace"):
        "af90ce22168c0079b0fe9b517f3a209cb8806cc16d55af68fd3ed1b53e81d0d2",
}


@pytest.mark.parametrize("scenario,verb", sorted(PINNED_SHA256))
def test_output_bytes_are_pinned(tmp_path, scenario, verb):
    spec = build_spec(parse_config_text(PINNED_SCENARIOS[scenario]))
    write = run_experiment if verb == "run" else trace_run
    out = write(spec, tmp_path)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_SHA256[scenario, verb]


def test_dump_messages_rerun_is_byte_identical(tmp_path):
    spec = _mini(loads="0.5", policies="fcfs", messages=300, seeds="9")
    cfg = scenario_config(spec, 0.5, 9)
    trace = engine_run(cfg, make_policy("fcfs", cfg),
                       StopRule(max_messages=300))
    a = dump_messages(trace, tmp_path / "a.csv")
    b = dump_messages(trace, tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()


# -- entry point -------------------------------------------------------------------------------


def _write_config(tmp_path, **kwargs) -> Path:
    path = tmp_path / "experiment.cfg"
    path.write_text(MINI.format(**kwargs))
    return path


def test_main_run_verb(tmp_path, capsys):
    cfg = _write_config(tmp_path, loads="0.5", policies="grid_partitioning",
                        messages=1200, seeds="1")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "results.csv").exists()
    assert "wrote" in out
    radius = reception_radius(db_to_linear(20.0), 2.0, 4.0)
    assert f"reception_radius = {radius:.3g}" in out


def test_main_bounds_and_trace_verbs(tmp_path):
    cfg = _write_config(tmp_path, loads="0.5", policies="fcfs",
                        messages=400, seeds="1")
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "bounds.csv").exists()
    assert main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "messages.csv").exists()


@pytest.mark.parametrize("verb,name", [("bounds", "bounds.csv"),
                                       ("trace", "messages.csv")])
def test_main_parallel_flag_leaves_bounds_and_trace_unchanged(tmp_path, verb,
                                                              name):
    cfg = _write_config(tmp_path, loads="0.5", policies="fcfs",
                        messages=400, seeds="1")
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main([verb, "--config", str(cfg), "--out", str(serial)]) == 0
    assert main([verb, "--config", str(cfg), "--out", str(parallel),
                 "--parallel", "2"]) == 0
    assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_main_parallel_help_names_the_run_verb(capsys):
    with pytest.raises(SystemExit):
        main(["bounds", "--help"])
    assert "only run uses it" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_rejects_parallel_below_one(tmp_path, capsys, workers):
    cfg = _write_config(tmp_path, loads="0.5", policies="fcfs",
                        messages=400, seeds="1")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--parallel", workers]) == 2
    assert f"--parallel: must be at least 1, got {workers}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_main_names_the_failing_cell(tmp_path, capsys, workers):
    # fcfs drives one collector, so its cells fail on a four-collector fleet
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(MINI.format(loads="0.4", policies="multi_partitioning, fcfs",
                               messages=200, seeds="1, 2")
                   + "scenario.collectors = 4\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--parallel", workers]) == 2
    err = capsys.readouterr().err
    assert "drives a single collector" in err
    assert "in cell policy=fcfs load=0.4 seed=1" in err
    assert not (tmp_path / "results.csv").exists()


def test_main_seed_override(tmp_path):
    cfg = _write_config(tmp_path, loads="0.5", policies="grid_partitioning",
                        messages=1200, seeds="1, 2")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--seeds", "7"]) == 0
    _, rows = _read_csv(tmp_path / "results.csv")
    assert rows[0]["seeds"] == "7"


def test_main_error_paths(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["run", "--config", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.area = -1\n")
    assert main(["bounds", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    cfg = _write_config(tmp_path, loads="0.5", policies="fcfs",
                        messages=400, seeds="1")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--seeds", ""]) == 2


@pytest.mark.parametrize("seeds,message", [
    ("1,1", "--seeds: entries must be distinct"),
    ("-1", "--seeds: seed -1 is negative"),
])
def test_main_seed_override_gets_the_run_seeds_checks(tmp_path, capsys, seeds,
                                                       message):
    cfg = _write_config(tmp_path, loads="0.5", policies="fcfs",
                        messages=400, seeds="1")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--seeds", seeds]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_main_requires_verb():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_keys_table_is_documented():
    for key, f in KEYS.items():
        assert f.metadata["key"] == key
        assert f.metadata["help"], key
    targets = [f.name for f in KEYS.values()]
    assert sorted(targets) == sorted(f.name for f in fields(ExperimentSpec))


# modules a fresh interpreter must not load, with their submodules, after
# `import collectsim.cli` and after a serial bounds call
_FRESH_BOUNDS_CALL = """
import sys
def loaded(*names):
    return [n for n in names
            if any(m == n or m.startswith(n + '.') for m in sys.modules)]
unused = ('numpy', 'scipy', 'statistics', 'concurrent.futures.process')
import collectsim.cli
assert not loaded(*unused), loaded(*unused)
code = collectsim.cli.main(sys.argv[1:])
assert not code and not loaded(*unused), (code, loaded(*unused))
"""


def test_cli_bounds_call_leaves_out_numpy_and_scipy(tmp_path):
    # the closed forms use neither numpy nor scipy, which would be most of
    # the command's start-up time, nor statistics, which loads decimal and
    # fractions; a serial call has no use for the process pool's
    # multiprocessing
    cfg = _write_config(tmp_path, loads="0.5", policies="fcfs",
                        messages=400, seeds="1")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = ["bounds", "--config", str(cfg), "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, "-c", _FRESH_BOUNDS_CALL, *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "bounds.csv").exists()
