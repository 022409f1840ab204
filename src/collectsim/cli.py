"""Experiment runner.

Parses a flat key=value config, sweeps loads across policies and seeds,
evaluates the closed-form bounds, and writes comma-separated result tables
(atomically, 6 significant digits). Verbs: ``run`` (simulate + bounds),
``bounds`` (formulas only), ``trace`` (single run with a per-message dump).

Config grammar: one ``section.key = value`` per line, ``#`` starts a
comment, blank lines ignored. SNR is given in dB here and converted to a
linear ratio at this boundary; the decoding threshold and path-loss exponent
are linear. Each key is declared once, with its default, parser and help
text, in the metadata of its ExperimentSpec field; KEYS maps keys to fields.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .bounds import BoundReport, bound_report
from .commmodel import reception_radius
from .core import ConfigurationError, ScenarioConfig
from .engine import EventTrace, StopRule, run
from .policies import PolicyKind, make_policy
from .stats import SimResult, TraceStats, pool_stats, trace_stats, wait_split

MAX_MESSAGES_PER_CELL = 200_000

# the bound_report fields shared by results.csv and bounds.csv, in order
BOUND_COLUMNS = (
    "pk_wait", "single_lb", "partitioning_delay", "multi_lb_mdm",
    "multi_lb_partition", "multi_lb_avg", "multi_partitioning_delay",
)

RESULT_COLUMNS = (
    "policy", "load", "arrival_rate", "collectors", "seeds", "messages",
    "mean_delay", "delay_ci", "mean_travel_wait", "travel_wait_ci",
    "mean_service_wait", "service_wait_ci", "mean_occupancy", "occupancy_ci",
    "rho_measured", "stability", "delay_over_bound",
) + BOUND_COLUMNS

BOUNDS_COLUMNS = (
    "snr_db", "reception_radius", "load", "arrival_rate", "collectors",
) + BOUND_COLUMNS

MESSAGE_COLUMNS = ("id", "arrival_time", "x", "y", "reception_start",
                   "departure_time", "wait_travel", "wait_service")


def _fmt(value, digits: int = 6) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return f"{value:.{digits}g}"


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# --------------------------------------------------------------------------
# config parsing


def parse_config_text(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _parser(convert, expected: str):
    """Parser of one config value by ``convert``; a value it rejects is
    reported with its key and what was expected."""
    def parse(key: str, value: str):
        try:
            return convert(value)
        except ValueError:
            raise ConfigurationError(
                f"{key}: expected {expected}, got {value!r}")
    return parse


_parse_float = _parser(float, "a number")
_parse_int = _parser(int, "an integer")
_parse_policy = _parser(
    PolicyKind, "one of " + ", ".join(kind.value for kind in PolicyKind))


def _parse_list(item):
    """Parser of a comma-separated list of distinct ``item`` values; a
    repeated entry would pool one replication twice."""
    def parse(key: str, value: str) -> tuple:
        if not value.strip():
            return ()
        items = tuple(item(key, part.strip()) for part in value.split(","))
        if len(set(items)) != len(items):
            raise ConfigurationError(
                f"{key}: entries must be distinct, got {value!r}")
        return items
    return parse


def _parse_seeds(key: str, value: str) -> tuple[int, ...]:
    seeds = _parse_list(_parse_int)(key, value)
    if not seeds:
        raise ConfigurationError(f"{key}: at least one seed required")
    for seed in seeds:
        if seed < 0:
            raise ConfigurationError(f"{key}: seed {seed} is negative")
    return seeds


def _key(key: str, default: str | None, parse, text: str):
    """ExperimentSpec field of config ``key``, required if default is None."""
    return field(metadata={"key": key, "default": default, "parse": parse,
                           "help": text})


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description (SNR already in dB as given)."""

    area: float = _key("scenario.area", None, _parse_float,
                       "region area, squared distance units")
    speed: float = _key("scenario.speed", None, _parse_float,
                        "collector speed (inf allowed)")
    reception_time: float = _key("scenario.reception_time", None,
                                 _parse_float, "time to receive one message")
    snr_db: float = _key("scenario.snr_db", None, _parse_float,
                         "reference SNR at unit distance, dB")
    snr_threshold: float = _key("scenario.snr_threshold", "2.0", _parse_float,
                                "decoding threshold, linear")
    path_loss: float = _key("scenario.path_loss", "4.0", _parse_float,
                            "path-loss exponent in [2, 6]")
    collectors: int = _key("scenario.collectors", "1", _parse_int,
                           "number of collectors")
    policies: tuple[PolicyKind, ...] = _key(
        "policy.kinds", "grid_partitioning", _parse_list(_parse_policy),
        "comma-separated distinct policy names")
    loads: tuple[float, ...] = _key(
        "sweep.loads", None, _parse_list(_parse_float),
        "comma-separated distinct loads in (0, 1.2]")
    snr_db_sweep: tuple[float, ...] = _key(
        "sweep.snr_db", "", _parse_list(_parse_float),
        "optional SNR sweep (bounds verb only)")
    messages: int = _key("run.messages", "20000", _parse_int,
                         "completed messages per (policy, load, seed)")
    seeds: tuple[int, ...] = _key(
        "run.seeds", "1,2,3", _parse_seeds,
        "comma-separated distinct non-negative seeds")
    warmup: float = _key("run.warmup", "0.2", _parse_float,
                         "warmup fraction of completed messages")


KEYS = {f.metadata["key"]: f for f in fields(ExperimentSpec)}


def build_spec(mapping: dict[str, str]) -> ExperimentSpec:
    """Validate a parsed config mapping into an ExperimentSpec."""
    for key in mapping:
        if key not in KEYS:
            raise ConfigurationError(f"{key}: unknown configuration key")
    values = {}
    for key, f in KEYS.items():
        default = f.metadata["default"]
        if key not in mapping and default is None:
            raise ConfigurationError(f"{key}: required key is missing")
        values[f.name] = f.metadata["parse"](key, mapping.get(key, default))
    spec = ExperimentSpec(**values)

    if not spec.policies:
        raise ConfigurationError("policy.kinds: at least one policy required")
    if not spec.loads:
        raise ConfigurationError("sweep.loads: at least one load required")
    for load in spec.loads:
        if not 0.0 < load <= 1.2:
            raise ConfigurationError(
                f"sweep.loads: load {load} outside (0, 1.2]")
    if not 0 < spec.messages <= MAX_MESSAGES_PER_CELL:
        raise ConfigurationError(
            f"run.messages: must lie in [1, {MAX_MESSAGES_PER_CELL}], "
            f"got {spec.messages}")
    if not 0.0 <= spec.warmup < 1.0:
        raise ConfigurationError(
            f"run.warmup: must lie in [0, 1), got {spec.warmup}")
    # fail fast on scenario-level problems (positivity, path-loss range)
    scenario_config(spec, spec.loads[0], spec.seeds[0])
    return spec


def load_spec(path: str | Path) -> ExperimentSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    return build_spec(parse_config_text(text))


def scenario_config(spec: ExperimentSpec, load: float, seed: int,
                    snr_db: float | None = None) -> ScenarioConfig:
    """Concrete scenario for one sweep point: the arrival rate is derived
    from the requested per-collector load."""
    return ScenarioConfig(
        area=spec.area,
        arrival_rate=load * spec.collectors / spec.reception_time,
        reception_time=spec.reception_time,
        speed=spec.speed,
        snr_ref=db_to_linear(snr_db if snr_db is not None else spec.snr_db),
        snr_threshold=spec.snr_threshold,
        path_loss=spec.path_loss,
        collectors=spec.collectors,
        seed=seed,
    )


# --------------------------------------------------------------------------
# output helpers


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp's 0600 becomes the mode a plain write would give
            os.fchmod(fd, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_messages(trace: EventTrace, path: str | Path) -> Path:
    """Write one row per completed message, sorted by departure time."""
    path = Path(path)
    travel, service = (w.tolist() for w in wait_split(trace)[:2])
    lines = [",".join(MESSAGE_COLUMNS)]
    for m in sorted(trace.completed, key=lambda m: m.departure_time):
        lines.append(",".join((
            str(m.id), _fmt(m.arrival_time, 12), _fmt(m.location.x, 12),
            _fmt(m.location.y, 12), _fmt(m.reception_start, 12),
            _fmt(m.departure_time, 12), _fmt(travel[m.id], 12),
            _fmt(service[m.id], 12))))
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def _bound_cells(report: BoundReport) -> list[str]:
    return [_fmt(getattr(report, name)) for name in BOUND_COLUMNS]


def _result_cells(policy: str, load: float, r: SimResult,
                  b: BoundReport) -> list[str]:
    """One results.csv row: a pooled (policy, load) cell and its bounds."""
    denominator = b.single_lb if r.collectors == 1 else b.multi_lb_avg
    ratio = (r.mean_delay / denominator
             if math.isfinite(denominator) and denominator > 0
             else math.nan)
    return [
        policy, _fmt(load), _fmt(r.arrival_rate),
        str(r.collectors), ";".join(str(s) for s in r.seeds),
        str(r.messages_counted),
        _fmt(r.mean_delay), _fmt(r.delay_ci),
        _fmt(r.mean_travel_wait), _fmt(r.travel_wait_ci),
        _fmt(r.mean_service_wait), _fmt(r.service_wait_ci),
        _fmt(r.mean_occupancy), _fmt(r.occupancy_ci),
        _fmt(r.rho_measured), r.stability, _fmt(ratio),
    ] + _bound_cells(b)


# --------------------------------------------------------------------------
# experiment execution


def _run_cell(job) -> TraceStats:
    config, kind, stop, warmup = job
    try:
        return trace_stats(run(config, make_policy(kind, config), stop),
                           warmup_fraction=warmup)
    except Exception as exc:
        # notes survive the pickling that carries a worker's exception back
        exc.add_note(f"in cell policy={kind.value} load={_fmt(config.load)} "
                     f"seed={config.seed}")
        raise


def run_cells(jobs, parallel: int = 1) -> list[TraceStats]:
    """Summarise each ``(config, kind, stop, warmup)`` job, in order."""
    if parallel > 1 and len(jobs) > 1:
        # imported here: it loads multiprocessing, which serial calls skip
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(_run_cell, jobs, chunksize=1))
    return [_run_cell(job) for job in jobs]


def run_experiment(spec: ExperimentSpec, out_dir: str | Path,
                   parallel: int = 1) -> Path:
    """Simulate every (policy, load, seed) cell, pool seeds, and write
    results.csv with one row per (policy, load)."""
    cells = [(kind, load) for kind in spec.policies for load in spec.loads]
    jobs = [(scenario_config(spec, load, seed), kind,
             StopRule(max_messages=spec.messages), spec.warmup)
            for kind, load in cells for seed in spec.seeds]
    parts = run_cells(jobs, parallel)

    # run_cells keeps job order, so each cell's seeds are one consecutive slice
    n = len(spec.seeds)
    lines = [",".join(RESULT_COLUMNS)]
    for i, (kind, load) in enumerate(cells):
        pooled = pool_stats(parts[i * n:(i + 1) * n])
        report = bound_report(scenario_config(spec, load, spec.seeds[0]))
        lines.append(",".join(_result_cells(kind.value, load, pooled, report)))
    out = Path(out_dir) / "results.csv"
    atomic_write_text(out, "\n".join(lines) + "\n")
    return out


def bounds_table(spec: ExperimentSpec, out_dir: str | Path) -> Path:
    """Evaluate the closed forms only (no simulation) over the load sweep,
    optionally crossed with an SNR sweep."""
    snrs = spec.snr_db_sweep if spec.snr_db_sweep else (spec.snr_db,)
    lines = [",".join(BOUNDS_COLUMNS)]
    for snr_db in snrs:
        for load in spec.loads:
            config = scenario_config(spec, load, spec.seeds[0], snr_db=snr_db)
            report = bound_report(config)
            lines.append(",".join([
                _fmt(snr_db), _fmt(report.reception_radius), _fmt(load),
                _fmt(config.arrival_rate), str(config.collectors),
            ] + _bound_cells(report)))
    out = Path(out_dir) / "bounds.csv"
    atomic_write_text(out, "\n".join(lines) + "\n")
    return out


def trace_run(spec: ExperimentSpec, out_dir: str | Path) -> Path:
    """Run the first (policy, load, seed) cell and dump its messages."""
    config = scenario_config(spec, spec.loads[0], spec.seeds[0])
    trace = run(config, make_policy(spec.policies[0], config),
                StopRule(max_messages=spec.messages))
    return dump_messages(trace, Path(out_dir) / "messages.csv")


# --------------------------------------------------------------------------
# entry point


def _header_lines(spec: ExperimentSpec) -> list[str]:
    radius = reception_radius(db_to_linear(spec.snr_db), spec.snr_threshold,
                              spec.path_loss)
    return [
        f"scenario: area={_fmt(spec.area)} speed={_fmt(spec.speed)} "
        f"reception_time={_fmt(spec.reception_time)} "
        f"collectors={spec.collectors}",
        f"reception_radius = {radius:.3g} (snr {_fmt(spec.snr_db)} dB, "
        f"threshold {_fmt(spec.snr_threshold)}, "
        f"path loss {_fmt(spec.path_loss)})",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="collectsim",
        description="Mobile-collector delay experiments: simulation sweeps "
                    "and closed-form bounds.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (("run", "simulate the sweep and write results.csv"),
                       ("bounds", "evaluate formulas only, write bounds.csv"),
                       ("trace", "run one cell and dump messages.csv")):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seeds", default=None,
                       help="override run.seeds, e.g. 4,5,6")
        p.add_argument("--parallel", type=int, default=1,
                       help="worker processes for independent cells; only "
                            "run uses it, bounds and trace ignore it")

    args = parser.parse_args(argv)
    try:
        if args.parallel < 1:
            raise ConfigurationError(
                f"--parallel: must be at least 1, got {args.parallel}")
        spec = load_spec(args.config)
        if args.seeds is not None:
            spec = replace(spec, seeds=_parse_seeds("--seeds", args.seeds))
        for line in _header_lines(spec):
            print(line)
        if args.verb == "run":
            out = run_experiment(spec, args.out, parallel=args.parallel)
        elif args.verb == "bounds":
            out = bounds_table(spec, args.out)
        else:
            out = trace_run(spec, args.out)
        print(f"wrote {out}")
        return 0
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", *getattr(exc, "__notes__", ()), sep="\n",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
