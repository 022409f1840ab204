"""collectsim benchmark: host time to a correct results table.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; collectsim is imported from
``src/`` there and nowhere else. Every workload drives the public CLI entry
``collectsim.cli.main`` in this process, serially, on the pinned configs in
``perfbench/configs``; ``--seed n`` shifts each config's ``run.seeds`` by n.

``--trace 0`` repeats the workload for about ``--seconds`` and reports
end-to-end metrics: the pass wall time, items per second (simulated
messages completed on ``sweep`` and ``tours``, ``bounds.csv`` rows on
``bounds``), the set-up time of a fresh interpreter (median of several) and
the peak resident memory. Wall and set-up times are in seconds of a
reference host (see ``hostspeed.py``): each CLI call and each set-up is
timed with the host speed sampled while it ran and scaled by it. The pass
wall time is the sum over the workload's CLI calls of each call's median
scaled time. The measured seconds are printed beside them.

``--trace 1`` runs one untraced pass, one traced pass and one
``--parallel 2`` pass, and reports per-layer metrics from the trace.

Every pass's output is checked (see ``checks.py``); an operation, one
(policy, load, seed) cell or one bounds row, fails if the CLI call raises or
its check fails. The last line printed is the JSON result; the exit code is
1 when any operation failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks
import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

# (verb, config name) per workload, in call order
WORKLOADS = {
    # engine hot path with one collector and with four; no tour planning
    "sweep": (("run", "case2"), ("run", "fleet")),
    # plan_tour dominates: many small batches, then fewer mid-size ones
    "tours": (("run", "tours_case2"), ("run", "tours_case1")),
    # closed forms only, no simulation
    "bounds": (("bounds", "bounds_case1"),),
}
SETUP_REPEATS = 5
PARALLEL = 2

SETUP_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
import hostspeed
times = []
with hostspeed.Sampler().timing(times):
    import collectsim.cli
    for path in sys.argv[3:]:
        collectsim.cli.load_spec(path)
print(*times[0])
"""


@dataclass
class Call:
    """One CLI invocation of a workload and what its output must show."""

    verb: str
    name: str
    config: Path
    spec: object  # ExperimentSpec with the shifted seeds

    def argv(self, out: Path, parallel: int) -> list[str]:
        return [self.verb, "--config", str(self.config),
                "--out", str(out / self.name),
                "--seeds", ",".join(str(s) for s in self.spec.seeds),
                "--parallel", str(parallel)]

    @property
    def csv_name(self) -> str:
        return "results.csv" if self.verb == "run" else "bounds.csv"

    @property
    def operations(self) -> int:
        spec = self.spec
        if self.verb == "run":
            return len(spec.policies) * len(spec.loads) * len(spec.seeds)
        return len(spec.snr_db_sweep or (spec.snr_db,)) * len(spec.loads)

    @property
    def messages(self) -> int:
        """Completed simulated messages of a correct call."""
        return self.operations * self.spec.messages if self.verb == "run" else 0

    def failures(self, text: str) -> tuple[int, dict[str, list[str]]]:
        """(failed operations, failing rows) of one output table."""
        spec = self.spec
        if self.verb == "bounds":
            reference = (BENCH / "reference" / f"{self.name}.csv").read_text()
            rows = checks.bounds_failures(text, reference, spec.reception_time)
            return min(len(rows), self.operations), rows
        kept = len(spec.seeds) * (spec.messages
                                  - int(spec.messages * spec.warmup))
        rows = checks.results_failures(text, [p.value for p in spec.policies],
                                       spec.loads, kept)
        return min(len(rows) * len(spec.seeds), self.operations), rows


@dataclass
class Pass:
    wall_s: float
    call_s: list[float]  # own seconds of each call
    ref_s: list[float]   # the same in reference seconds (0 when unsampled)
    attempted: int = 0
    failed: int = 0
    sha256: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def import_cli():
    """collectsim.cli from this checkout's ``src``; ImportError otherwise."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import collectsim.cli
    if not Path(collectsim.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"collectsim imported from {collectsim.cli.__file__}"
                          f", not from {src}")
    return collectsim.cli


def make_calls(cli, workload: str, seed: int, messages: int | None
               ) -> list[Call]:
    calls = []
    for verb, name in WORKLOADS[workload]:
        config = BENCH / "configs" / f"{name}.cfg"
        if messages is not None:
            # smoke-test budget: the same config with fewer messages per cell
            mapping = cli.parse_config_text(config.read_text())
            mapping["run.messages"] = str(messages)
            config = OUT / "configs" / config.name
            config.parent.mkdir(parents=True, exist_ok=True)
            config.write_text("".join(f"{k} = {v}\n"
                                      for k, v in mapping.items()))
        spec = cli.load_spec(config)
        spec = replace(spec, seeds=tuple(s + seed for s in spec.seeds))
        calls.append(Call(verb, name, config, spec))
    return calls


def run_pass(main, calls: list[Call], out: Path, parallel: int = 1,
             sampler: hostspeed.Sampler | None = None) -> Pass:
    """Run every call once, then check what each wrote. With a sampler,
    each call is also timed in reference seconds."""
    codes, times = [], []
    sink = io.StringIO()
    clock = time.perf_counter
    start = clock()
    for call in calls:
        began = clock()
        with contextlib.ExitStack() as stack:
            if sampler is not None:
                stack.enter_context(sampler.timing(times))
            try:
                with contextlib.redirect_stdout(sink):
                    codes.append(main(call.argv(out, parallel)))
            except Exception:
                traceback.print_exc()
                codes.append(None)
        if sampler is None:
            times.append((clock() - began, 0.0))
    result = Pass(clock() - start, [own for own, _ in times],
                  [ref for _, ref in times])
    for call, code in zip(calls, codes):
        result.attempted += call.operations
        path = out / call.name / call.csv_name
        if code != 0:
            result.failed += call.operations
            result.problems.append(f"{call.name}: CLI call ended with {code}")
            continue
        text = path.read_text()
        result.sha256[f"{call.name}/{call.csv_name}"] = hashlib.sha256(
            text.encode()).hexdigest()
        failed, rows = call.failures(text)
        result.failed += failed
        result.problems += [f"{call.name} {label}: {'; '.join(reasons)}"
                            for label, reasons in rows.items()]
    return result


def setup_seconds(calls: list[Call]) -> list[tuple[float, float]]:
    """Fresh-interpreter time to import collectsim.cli and load the
    workload's configs, SETUP_REPEATS times; each as (own seconds,
    reference seconds)."""
    argv = [sys.executable, "-c", SETUP_SCRIPT, str(BENCH), str(ROOT / "src")]
    argv += [str(call.config) for call in calls]
    setups = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True,
                              check=True, timeout=120, cwd=ROOT)
        own, reference = map(float, done.stdout.split())
        setups.append((own, reference))
    return setups


def run_context(workload: str, seed: int, calls: list[Call]) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "collectsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    return {
        "workload": workload,
        "seed_offset": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "calls": [{"name": c.name, "verb": c.verb, "seeds": list(c.spec.seeds),
                   "operations": c.operations, "messages": c.messages}
                  for c in calls],
    }


def measure(cli, calls: list[Call], seconds: float, out: Path):
    """Untraced passes for about ``seconds``; end-to-end metrics."""
    setups = setup_seconds(calls)
    sampler = hostspeed.Sampler()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli.main, calls, out, sampler=sampler))
        # stop before a pass of the mean length would overrun the budget
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    wall = sum(statistics.median(p.ref_s[i] for p in passes)
               for i in range(len(calls)))
    items = sum(c.messages or c.operations for c in calls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "items_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {"pass_wall_s": [p.wall_s for p in passes],
             "setup_s": [own for own, _ in setups],
             "setup_ref_s": [ref for _, ref in setups],
             "measured_wall_s": sum(statistics.median(p.call_s[i]
                                                      for p in passes)
                                    for i in range(len(calls))),
             "call_s": {c.name: [p.call_s[i] for p in passes]
                        for i, c in enumerate(calls)},
             "call_ref_s": {c.name: [p.ref_s[i] for p in passes]
                            for i, c in enumerate(calls)}}
    return passes, metrics, notes


def measure_traced(cli, calls: list[Call], out: Path):
    """One untraced, one traced and one parallel pass; per-layer metrics."""
    untraced = run_pass(cli.main, calls, out)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = run_pass(tracer.timed("cli.main", cli.main), calls, out)
    parallel = run_pass(cli.main, calls, out, parallel=PARALLEL)
    tours = spans.tour_failures(tracer)
    if tours:
        # a tour belongs to a single-cell call; count each bad tour once
        traced.failed = min(traced.attempted, traced.failed + len(tours))
        traced.problems += tours[:20]
    tracer.write(out / "spans.jsonl")

    metrics = spans.layer_metrics(tracer, sum(c.messages for c in calls))
    metrics["cli.parallel_speedup"] = (untraced.wall_s / parallel.wall_s,
                                       "ratio")
    metrics["trace.overhead_frac"] = (traced.wall_s / untraced.wall_s - 1.0,
                                      "ratio")
    by_layer = spans.self_time_by_layer(tracer)
    notes = {"pass_wall_s": {"untraced": untraced.wall_s,
                             "traced": traced.wall_s,
                             "parallel": parallel.wall_s},
             "self_s_by_layer": by_layer}
    return [untraced, traced, parallel], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--messages", type=int, default=None,
                        help="override run.messages (smoke tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"error: cannot import collectsim from this checkout: {exc}",
              file=sys.stderr)
        return 2

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    calls = make_calls(cli, args.workload, args.seed, args.messages)
    context = run_context(args.workload, args.seed, calls)
    if args.trace:
        passes, metrics, notes = measure_traced(cli, calls, out)
    else:
        passes, metrics, notes = measure(cli, calls, args.seconds, out)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = sorted({line for p in passes for line in p.problems})
    hashes = passes[-1].sha256
    report = {"context": context, "metrics": metrics, "notes": notes,
              "sha256": hashes,
              "sha256_agree_across_passes": all(p.sha256 == hashes
                                                for p in passes),
              "attempted": attempted, "failed": failed, "problems": problems}
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    print("context " + json.dumps(context))
    for path, digest in hashes.items():
        print(f"sha256 {digest}  {path}")
    for line in problems:
        print(f"FAILED {line}")
    for name, value in notes.get("self_s_by_layer", {}).items():
        print(f"self time {name:9s} {value:10.4f} s")
    shown = dict(metrics)
    if not args.trace:
        # items_per_s under its per-workload name, and the failure share,
        # which the result line carries as attempted and failed
        name = "msgs_per_s" if calls[0].verb == "run" else "rows_per_s"
        shown[name] = metrics["items_per_s"]
        shown["failed_frac"] = (failed / attempted, "ratio")
        # the same times as measured on this host, unscaled
        shown["measured_wall_s"] = (notes["measured_wall_s"], "s")
        shown["measured_setup_s"] = (statistics.median(notes["setup_s"]),
                                     "s")
    for name, (value, unit) in shown.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
