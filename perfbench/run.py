"""LASSI reproduction benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload paper-grid [--seed 2024] \
        [--seconds 30] [--trace 0|1]

Run from the repository root.  Each pass of the workload runs in a fresh
process (``workload.py``), so the compile cache and the baselines start
cold, as they do for a CLI user; passes repeat while the next one is
expected to end within ``--seconds`` (at least one pass).

``--trace 0`` prints the end-to-end metrics, measured with no wrappers:
``setup_s`` (median of several fresh start-ups, after one untimed start-up
that warms the bytecode cache), throughput, per-scenario wall time (median
and tail), peak memory and the science outcome.  The tail is the highest
percentile with at least ten samples beyond it, reported as
``scenario_s.tail`` with its percentile and sample count printed above the
result: p87 of 80 scenarios on the paper grids, p97 of 336 on
synth-stochastic.  A fixed p87 would sit on synth-stochastic's latency
cliff (about 0.10 s to 0.30 s between ranks 288 and 296), so its value
would jump between runs.

End-to-end times are scaled to a reference machine speed: each pass's
times are multiplied by ``REFERENCE_PROBE_S`` over the median of the speed
probes run between its scenarios (``probe.py``), and ``setup_s`` by the
same ratio for probes run before each start-up.  The unscaled wall-clock
figures and the factors are printed above the result.

``--trace 1`` runs one pass without wrappers and then the traced passes,
with ``ledger.py``'s wrappers around each layer's public functions, and
prints the per-layer ledger: calls, unscaled self times, counters, the
share of wall time no layer accounts for, and the wrappers' own overhead
(scaled traced over scaled untraced wall time).

The seed shuffles the order of the apps within each (direction, model)
block of the grid, so each seed runs the same work.  The LLM behaviour
comes from a fixed runner seed (see ``workload.py``), so the outputs are
the same for every seed and are checked on every run: each scenario's
status, attempt count and Ratio, and so the success rate, within-10% rate
and attempts per scenario, must equal ``expected.json``'s (the process
workload must reproduce the paper grid's), and successful translations are
re-run and must still match the reference stdout and Ratio.  On failure the
result line reads ``"correct": false`` and the exit code is 1.  ``failed``
counts re-run successes that no longer match.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from probe import REFERENCE_PROBE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2024
#: Timed start-ups per run for ``setup_s`` (their median is reported).
SETUP_SAMPLES = 7
#: Speed probes before each timed start-up.
SETUP_PROBES = 10
#: Every run ends within this many seconds, or fails.
RUN_BUDGET_S = 170.0
#: Layers whose self times partition the ledger's wall time.
SELF_TIME_LAYERS = {
    "pipeline.self_s": "pipeline",
    "llm.self_s": "llm",
    "transpiler.self_s": "transpiler",
    "minilang.parse_s": "minilang.parse",
    "minilang.sema_s": "minilang.sema",
    "compile.self_s": "compile",
    "execute.self_s": "execute",
    "baseline.self_s": "baseline",
    "similarity.self_s": "similarity",
    "session.record_s": "session.record",
    "cache.put_s": "cache.put",
    "trace.write_s": "trace.write",
    "result.decode_s": "result.decode",
    "pool.wait_s": "pool.wait",
    "probe.self_s": "probe",
}
CALL_COUNTS = {
    "llm.calls": "llm",
    "transpiler.calls": "transpiler",
    "minilang.parse.calls": "minilang.parse",
    "compile.calls": "compile",
    "execute.calls": "execute",
    "baseline.calls": "baseline",
}
COUNTERS = ("compile.failed", "execute.failed", "interp.steps",
            "interp.launches", "baseline.builds", "baseline.build_s")


class BenchError(Exception):
    """The benchmark could not run (not an output-check failure)."""


# ----------------------------------------------------------------------
# Child processes


def child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    # Bytecode must be cached next to the sources, inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["TMPDIR"] = str(tmp)
    env["REPRO_FLIGHT_DIR"] = str(tmp)
    return env


def kill_group(pgid: int) -> None:
    """Kill what is left of a process group and wait (up to 5 s) for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(100):
            time.sleep(0.05)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def run_child(argv: Sequence[str], tmp: Path, deadline: float) -> str:
    """Run ``argv`` in its own process group; return its stdout."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(tmp), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} did not finish within the run budget")
    finally:
        # Anything the child left behind, such as pool workers.
        kill_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n"
                         + err[-3000:])
    return out


def measure_setup(workload: str, tmp: Path,
                  deadline: float) -> Tuple[List[float], List[float]]:
    """Seconds from interpreter start to a constructed runner, per start-up,
    and the speed probes taken before each start-up.

    The first start-up is untimed: it writes the bytecode cache.
    """
    samples: List[float] = []
    probes: List[float] = []
    for i in range(SETUP_SAMPLES + 1):
        sample_dir = tmp / f"setup-{i}"
        sample_dir.mkdir()
        code = (
            "import sys, time\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "from pathlib import Path\n"
            "from workload import build_runner\n"
            f"build_runner({workload!r}, Path({str(sample_dir)!r}))\n"
            "print(time.monotonic())\n"
        )
        if i:
            probes += [probe() for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        ready = float(run_child([sys.executable, "-c", code], tmp, deadline).split()[-1])
        if i:
            samples.append(ready - start)
    return samples, probes


def run_pass(workload: str, seed: int, traced: bool, tmp: Path,
             deadline: float, index: int) -> Dict[str, Any]:
    pass_dir = tmp / f"pass-{index}"
    out = tmp / f"pass-{index}.json"
    run_child([sys.executable, str(HERE / "workload.py"),
               "--workload", workload, "--seed", str(seed),
               "--ledger", str(int(traced)), "--tmp", str(pass_dir),
               "--out", str(out)], tmp, deadline)
    return json.loads(out.read_text(encoding="utf-8"))


def run_passes(workload: str, seed: int, traced: bool, seconds: float,
               tmp: Path, deadline: float, first_index: int = 0) -> List[Dict[str, Any]]:
    """Passes until the next one would overrun ``seconds`` (at least one)."""
    passes: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, traced, tmp, deadline,
                               first_index + len(passes)))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


# ----------------------------------------------------------------------
# Metrics


def percentile(values: Sequence[float], pct: int) -> float:
    """Linearly interpolated between neighbouring samples: on the paper grid
    the median falls where scenario times jump from 0.150 s to 0.172 s, and
    the nearest sample alone flips between the two from run to run."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    for pct in range(99, 49, -1):
        if n - math.ceil(pct * n / 100) >= 10:
            return pct
    return 50


def science(outcomes: List[list]) -> Dict[str, int]:
    successes = [o for o in outcomes if o[3] == "success"]
    return {
        "scenarios": len(outcomes),
        "successes": len(successes),
        "within_10pct": sum(1 for o in successes if o[5] >= 1 / 1.1),
        "attempts": sum(o[4] for o in outcomes),
    }


def check(workload: str, passes: List[Dict[str, Any]]) -> List[str]:
    """Every reason the outputs are wrong (empty when correct)."""
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    spec = expected[workload]
    reference = spec.get("outcomes") or expected[spec["outcomes_of"]]["outcomes"]
    problems = []
    for p in passes:
        got = science(p["outcomes"])
        if got != spec["science"]:
            problems.append(f"science outcome {got} != expected {spec['science']}")
        if p["outcomes"] != reference:
            problems.append("per-scenario outcomes differ from expected.json's")
        for key in p["reverify_failures"]:
            problems.append(f"{key}: re-run output or Ratio differs from the record")
        persisted = p.get("persisted")
        if persisted is not None:
            counts = {k: persisted[k] for k in
                      ("session_records", "cache_entries", "traces")}
            if set(counts.values()) != {len(reference)}:
                problems.append(f"persisted {counts}, expected {len(reference)} each")
    return problems


def speed_factor(probes: Sequence[float]) -> float:
    """Multiplier taking times measured beside ``probes`` to the reference
    speed (see ``probe.py``)."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def run_wall(p: Dict[str, Any]) -> float:
    """A pass's ``runner.run`` wall time without its speed probes."""
    return p["wall_s"] - sum(p["probe_seconds"])


def end_to_end(passes: List[Dict[str, Any]], setup: List[float],
               setup_probes: List[float], scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics; times are scaled to the reference speed
    unless ``scaled`` is false."""
    def factor(probes: Sequence[float]) -> float:
        return speed_factor(probes) if scaled else 1.0

    times = [t * factor(p["probe_seconds"])
             for p in passes for t in p["scenario_seconds"]]
    sci = science(passes[0]["outcomes"])
    tail = tail_percentile(len(times))
    return {
        "setup_s": statistics.median(setup) * factor(setup_probes),
        "scenarios_per_s": (
            sum(len(p["outcomes"]) for p in passes)
            / sum(run_wall(p) * factor(p["probe_seconds"]) for p in passes)),
        "scenario_s.p50": percentile(times, 50),
        "scenario_s.tail": percentile(times, tail),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "success_rate": sci["successes"] / sci["scenarios"],
        "within_10pct_rate": sci["within_10pct"] / sci["successes"],
        "attempts_per_scenario": sci["attempts"] / sci["scenarios"],
    }


def per_layer(passes: List[Dict[str, Any]],
              untraced: Dict[str, Any]) -> Dict[str, float]:
    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    cache = {"hits": 0, "misses": 0}
    wall = 0.0
    io_bytes = 0
    for p in passes:
        wall += p["wall_s"]
        io_bytes += p.get("persisted", {}).get("bytes", 0)
        for part in [p] + p["workers"]:
            ledger = part["ledger"]
            for into, name in ((self_s, "self_s"), (calls, "calls"),
                               (counters, "counters")):
                for key, value in ledger[name].items():
                    into[key] = into.get(key, 0) + value
            for key in cache:
                cache[key] += part["compile_cache"][key]
        # Workers run scenarios beside the waiting parent: their busy time
        # is wall time the ledger must account for too.
        wall += sum(w["busy_s"] for w in p["workers"])

    metrics = {name: self_s.get(layer, 0.0) for name, layer in SELF_TIME_LAYERS.items()}
    metrics.update({name: calls.get(layer, 0) for name, layer in CALL_COUNTS.items()})
    metrics.update({name: counters.get(name, 0) for name in COUNTERS})
    unattributed = wall - sum(self_s.values())
    traced_wall = statistics.mean(
        run_wall(p) * speed_factor(p["probe_seconds"]) for p in passes)
    metrics.update({
        "compile.cache_hit_ratio": cache["hits"] / max(1, sum(cache.values())),
        "io.bytes_written": io_bytes,
        "ledger.wall_s": wall,
        "unattributed_s": unattributed,
        "unattributed.share": unattributed / wall,
        "ledger.overhead": traced_wall / (
            run_wall(untraced) * speed_factor(untraced["probe_seconds"])) - 1,
    })
    return metrics


# ----------------------------------------------------------------------
# Output


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_env(args: argparse.Namespace) -> None:
    print(f"env: python {platform.python_version()} ({platform.machine()}), "
          f"nproc {os.cpu_count()}, git {git_sha()}")
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    deadline = time.monotonic() + RUN_BUDGET_S
    scratch_root = HERE / ".run"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        print_env(args)
        if args.trace:
            untraced = run_pass(args.workload, args.seed, False, tmp, deadline, 0)
            passes = run_passes(args.workload, args.seed, True, args.seconds,
                                tmp, deadline, first_index=1)
            metrics = per_layer(passes, untraced)
            passes.insert(0, untraced)
        else:
            setup, setup_probes = measure_setup(args.workload, tmp, deadline)
            passes = run_passes(args.workload, args.seed, False, args.seconds,
                                tmp, deadline)
            metrics = end_to_end(passes, setup, setup_probes)
            raw = end_to_end(passes, setup, setup_probes, scaled=False)
            n = sum(len(p["scenario_seconds"]) for p in passes)
            print(f"passes {len(passes)}; scenario_s over {n} samples, "
                  f"tail = p{tail_percentile(n)}; setup_s = median of "
                  f"{len(setup)} start-ups {[round(s, 3) for s in setup]}")
            print("speed factors (reference / measured): setup "
                  f"{speed_factor(setup_probes):.3f}, passes "
                  f"{[round(speed_factor(p['probe_seconds']), 3) for p in passes]}")
            print("unscaled wall clock: " + ", ".join(
                f"{k} {raw[k]:.6g}" for k in
                ("setup_s", "scenarios_per_s", "scenario_s.p50", "scenario_s.tail")))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    for name in units:
        print(f"{name:28s} {metrics[name]:.6g} {units[name]}")
    problems = check(args.workload, passes)
    for problem in problems:
        print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(p["outcomes"]) for p in passes),
        "failed": sum(len(p["reverify_failures"]) for p in passes),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
