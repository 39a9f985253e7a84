"""Benchmark of the twopartite CLI: end-to-end command timings and a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload approx|census|exact|all --seed N --seconds S --trace 0|1

One client issues the workload's commands one at a time (a closed loop),
each in a fresh interpreter through ``bench/runner.py``, and cycles
through them while the next one is predicted to end within ``--seconds``.
Every payload is checked.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the per-command detail.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics instead.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNNER = BENCH / "runner.py"
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER, LayerTotals, layer_metrics  # noqa: E402
from workloads import NAMED_METRICS, WORKLOADS, judge  # noqa: E402

SETUP_REPS = 9
COMMAND_TIMEOUT_S = 150
RESIDUAL_TOLERANCE_S = 1e-6

END_TO_END = {   # name -> unit, for every workload
    "wall_s": "s",
    "cmd_geomean_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TRACE_OVERHEAD = ("trace.overhead", "ratio", "lower")


class SetupError(Exception):
    """The program could not be started at all; no result is printed."""


def _runner_argv(out: str, trace: str | None = None, probe: bool = False) -> list[str]:
    argv = [sys.executable, str(RUNNER), "--src", str(SRC), "--out", out]
    if trace:
        argv += ["--trace", trace]
    if probe:
        argv.append("--probe")
    return argv


def _report(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def set_up(workload: str, seed: int, work: Path):
    """Generate the inputs and start one interpreter up to ``cli.run``;
    returns the seconds that took and the workload's commands."""
    t0 = time.monotonic()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = WORKLOADS[workload](seed, work)
    proc = subprocess.run(_runner_argv("probe.out", probe=True), cwd=work,
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    report = _report(proc.stdout)
    if proc.returncode != 0 or report is None:
        raise SetupError(f"the runner could not start twopartite:\n{proc.stderr}")
    return report["t_start"] - t0, commands


def run_command(cmd, work: Path, traced: bool, digests: dict) -> dict:
    """Run one command; returns its time, peak RSS, spans (when traced) and
    the reasons it failed, if any.  ``digests`` holds each command's first
    payload digest: every command is deterministic, so a later payload must
    match it byte for byte."""
    out = f"{cmd.label}.out"
    trace = f"{cmd.label}.spans" if traced else None
    try:
        proc = subprocess.run(_runner_argv(out, trace) + ["--", *cmd.argv], cwd=work,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"no result within {COMMAND_TIMEOUT_S} s"]}
    payload_path = work / out
    payload = payload_path.read_text(encoding="utf-8") if payload_path.exists() else ""
    problems = judge(cmd, proc.returncode, proc.stderr, payload)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if digests.setdefault(cmd.label, digest) != digest:
        problems.append("payload differs from the first run of the command")
    report = _report(proc.stdout)
    if report is None:
        problems.append("the runner reported no timing")
        return {"problems": problems}
    result = {"problems": problems, "time_s": report["t_end"] - report["t_start"],
              "rss_kb": report["rss_kb"]}
    if traced:
        spans = json.loads((work / trace).read_text(encoding="utf-8"))
        result["missing"] = spans["missing"]
        result["totals"] = LayerTotals()
        residual = result["totals"].add(spans["spans"])
        if abs(residual) > RESIDUAL_TOLERANCE_S:
            problems.append(f"span self times miss the root span by {residual:.3g} s")
    return result


def closed_loop(commands, work: Path, seconds: float, trace: bool) -> list[tuple]:
    """Issue the commands in order, one at a time, until the next one would
    end after ``seconds``; returns (command index, traced, result) samples.
    Untraced runs stop at any command.  Traced runs alternate whole
    untraced and traced passes and make at least one of each."""
    samples, digests, n = [], {}, len(commands)
    start = time.monotonic()

    def fits(cost: float) -> bool:
        return time.monotonic() - start + cost <= seconds

    def run(i: int, traced: bool) -> float:
        t0 = time.monotonic()
        samples.append((i, traced, run_command(commands[i], work, traced, digests)))
        return time.monotonic() - t0

    if trace:
        cost = {}
        for traced in itertools.cycle((False, True)):
            if len(cost) == 2 and not fits(cost[traced]):
                break
            cost[traced] = sum(run(i, traced) for i in range(n))
    else:
        cost = [0.0] * n
        for k in itertools.count():
            if k >= n and not fits(cost[k % n]):
                break
            cost[k % n] = run(k % n, False)
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPS):
            setup_s, commands = set_up(workload, seed, work)
            setups.append(setup_s)
        samples = closed_loop(commands, work, seconds, trace)
        return summarize(workload, commands, setups, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _good(samples, i: int, traced: bool) -> list[dict]:
    return [r for j, t, r in samples if j == i and t == traced and not r["problems"]]


def summarize(workload, commands, setups, samples) -> dict:
    failures = [f"{commands[i].label}: {p}" for i, _, r in samples for p in r["problems"]]
    plain = [_good(samples, i, False) for i in range(len(commands))]
    times = {cmd.label: [r["time_s"] for r in rs] for cmd, rs in zip(commands, plain)}

    e2e, named = {}, {}
    if all(plain):
        med = {label: median(ts) for label, ts in times.items()}
        named = {m: sum(med[c.label] for c in commands if c.metric == m)
                 for m in NAMED_METRICS[workload]}
        e2e["wall_s"] = sum(med.values())
        e2e["cmd_geomean_s"] = math.exp(sum(map(math.log, named.values())) / len(named))
        e2e["peak_rss_mb"] = max(median(r["rss_kb"] for r in rs) for rs in plain) / 1024
    e2e["setup_s"] = median(setups)

    detail = {
        "workload": workload,
        "failed_ops": len(failures) / len(samples),
        "metrics": {**e2e, **named},
        "command_s": times,
        "setup_runs_s": setups,
        "failures": failures,
    }
    result = {"correct": not failures, "attempted": len(samples), "failed": len(failures)}
    traced_results = [r for _, t, r in samples if t]
    if not traced_results:
        result["metrics"] = {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()}
        return {"detail": detail, "result": result}

    n = len(commands)
    passes = [traced_results[k:k + n] for k in range(0, len(traced_results), n)]
    values, absent = _layers(passes)
    traced_good = [_good(samples, i, True) for i in range(n)]
    if "wall_s" in e2e and all(traced_good):
        traced_wall = sum(median(r["time_s"] for r in rs) for rs in traced_good)
        values[TRACE_OVERHEAD[0]] = traced_wall / e2e["wall_s"] - 1
    else:
        absent.append(TRACE_OVERHEAD[0])
    units = {name: unit for name, unit, *_ in PER_LAYER}
    units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    result["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    detail["missing_metrics"] = absent
    detail["layers_by_command"] = {
        cmd.label: layer_metrics(r["totals"], r["missing"])[0]
        for cmd, r in zip(commands, passes[0]) if "totals" in r}
    return {"detail": detail, "result": result}


def _layers(passes) -> tuple[dict, list[str]]:
    """Per-layer metrics summed over each traced pass's commands, median over passes."""
    per_pass, missing = [], set()
    for p in passes:
        totals = LayerTotals()
        for r in p:
            if "totals" in r:
                totals.merge(r["totals"])
                missing.update(r["missing"])
        per_pass.append(layer_metrics(totals, missing)[0])
    values = {name: median(v[name] for v in per_pass) for name in per_pass[0]}
    return values, [name for name, *_ in PER_LAYER if name not in values]


def _print_table(detail: dict, result: dict) -> None:
    print(f"== {detail['workload']}: attempted {result['attempted']}, "
          f"failed {result['failed']}", file=sys.stderr)
    rows = [(n, v, "MB" if n == "peak_rss_mb" else "s") for n, v in detail["metrics"].items()]
    rows.append(("failed_ops", detail["failed_ops"], "share"))
    rows += [(n, m["value"], m["unit"]) for n, m in result["metrics"].items()
             if n not in detail["metrics"]]
    for name, value, unit in rows:
        print(f"  {name:<36} {value!s:>22} {unit}", file=sys.stderr)
    for line in detail["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)
    for name in detail.get("missing_metrics", ()):
        print(f"  MISSING {name}: a traced boundary is gone from twopartite", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "twopartite" / "cli.py").is_file():
        print(f"error: no twopartite sources under {SRC}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    try:
        outcomes = [measure(w, opts.seed, opts.seconds, bool(opts.trace)) for w in workloads]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for outcome in outcomes:
        _print_table(outcome["detail"], outcome["result"])
        print(json.dumps(outcome["detail"]))
        print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
