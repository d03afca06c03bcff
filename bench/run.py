"""Benchmark of `nea run`: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload mask-long --seed 1 --seconds 60 --trace 0

Run from anywhere; it uses the `src/` next to this directory.  The workload
is generated from --seed into `.bench_work/`, then run as a closed loop of
fresh single-threaded processes (`child.py`), each one `nea run` of the
whole scenario, until --seconds have passed (three processes at least).
An operation is one agent-tick.  The first process's outputs go through
`checks.py`; every later process must write the same bytes (same digest).
A process that faults, or whose outputs fail a check, fails every
agent-tick it ran.

--trace 0 prints the end-to-end metrics, each the median over the
processes.  --trace 1 alternates untraced and traced processes and prints
the per-layer metrics of the traced ones (medians), with the traced loop
time over the untraced one as `runtime.trace_overhead`.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckFailed, check_outputs, digest
from workloads import GENERATORS, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = {False: 3, True: 1}  # untraced runs need a median; a traced round is two processes
CHILD_TIMEOUT_S = 150
LAST_START_S = 120  # start no process after this, so a run ends well within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "agent_ticks_per_s": "1/s",
    "tick_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_overhead")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Run:
    """The processes of one benchmark run and what they measured."""

    def __init__(self, wl: Workload, workdir: Path) -> None:
        self.wl = wl
        self.out = workdir / "out"
        self.result = workdir / "result.json"
        self.agent_ticks = len(wl.roster) * wl.ticks
        self.attempted = 0
        self.failed = 0
        self.first_digest: str | None = None
        self.checks_passed = False
        self.results: dict[bool, list[dict]] = {False: [], True: []}
        self.output_bytes: dict[str, int] = {}

    def process(self, traced: bool) -> float:
        """Run one `nea run` process; returns how long it took."""
        started = time.perf_counter()
        shutil.rmtree(self.out, ignore_errors=True)
        self.result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(self.result), str(int(traced))]
        env = {k: v for k, v in os.environ.items() if k != "NEA_SEED"}
        proc = subprocess.run(
            cmd + self.wl.run_args(self.out),
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - started
        self.attempted += self.agent_ticks
        if proc.returncode != 0 or not self.result.is_file():
            sys.stderr.write(f"nea run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            self.failed += self.agent_ticks
            return elapsed
        found = digest(self.out, self.wl)
        if self.first_digest is None:
            self.first_digest = found
            print(f"{self.wl.name} seed {self.wl.seed}: output digest {found}")
            try:
                check_outputs(self.out, self.wl)
                self.checks_passed = True
            except CheckFailed as exc:
                sys.stderr.write(f"output check failed: {exc}\n")
            self.output_bytes = {
                "io.metrics_bytes": (self.out / "metrics.csv").stat().st_size,
                "io.trace_bytes": (self.out / self.wl.trace_name).stat().st_size,
            }
        if found != self.first_digest:
            sys.stderr.write(f"output digest {found} differs from {self.first_digest} on the same inputs\n")
            self.failed += self.agent_ticks
        elif not self.checks_passed:
            self.failed += self.agent_ticks
        else:
            self.results[traced].append(json.loads(self.result.read_text(encoding="utf-8")))
        return elapsed


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(run: Run) -> dict[str, float]:
    rs = run.results[False]
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in rs),
        "wall_s": med(r["wall_s"] for r in rs),
        "agent_ticks_per_s": med(run.agent_ticks / r["loop_s"] for r in rs),
        "tick_ms_p95": med(p95(r["tick_s"]) * 1000.0 for r in rs),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rs),
    }


def per_layer(run: Run) -> dict[str, float]:
    traced = run.results[True]
    med = statistics.median
    out = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    out["runtime.import_s"] = med(r["import_s"] for r in run.results[False])
    out["runtime.trace_overhead"] = out["loop.traced_s"] / med(r["loop_s"] for r in run.results[False])
    out.update(run.output_bytes)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nea" / "cli.py").is_file():
        print(f"bench: no nea sources at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "nea", quiet=1)

    wl = generate(args.workload, args.seed, SRC)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    wl.write(workdir)
    run = Run(wl, workdir)

    traced = bool(args.trace)
    modes = (False, True) if traced else (False,)
    started = time.perf_counter()
    rounds, longest = 0, 0.0
    while True:
        round_s = sum(run.process(mode) for mode in modes)
        rounds += 1
        longest = max(longest, round_s)
        elapsed = time.perf_counter() - started
        if rounds >= MIN_ROUNDS[traced] and (elapsed + longest > args.seconds or elapsed > LAST_START_S):
            break

    ok = all(run.results[mode] for mode in modes)
    metrics = {}
    if ok:
        values = per_layer(run) if traced else end_to_end(run)
        units = {name: per_layer_unit(name) for name in values} if traced else END_TO_END
        metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    print(f"{wl.name} seed {wl.seed}: {rounds} round(s), {len(run.results[False])} untraced and {len(run.results[True])} traced process(es) kept")
    print(json.dumps({"correct": run.failed == 0 and ok, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
