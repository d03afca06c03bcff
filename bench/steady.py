"""Steadiness of the benchmark: two sets of ten runs of one commit.

    python3 bench/steady.py

Each set runs `run.py` ten times on every workload of BENCHMARK.json, with
seeds 1..10, so the same seed comes back once per set.  Every run's result
is printed as it ends.  For every workload and metric it then prints each
set's median and quartile spread (q3 - q1 over the median), and the gap
between the two sets' medians (second against first, either direction).
It checks them against the bounds of BENCHMARK.json: every spread and
every gap within the metric's bound (and flags a spread above a third of
it), the same share of failed agent-ticks in every run, and the same
output digest for every run of one workload and seed.  It exits 1 if a
check fails.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST = re.compile(r"^(\S+) seed (\d+): output digest (\w+)$", re.M)
SETS = 2
RUNS = 10


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False, "metrics": {}}
    result["digests"] = sorted({m.group(3) for m in DIGEST.finditer(proc.stdout)})
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            runs[w].append([])
            for seed in range(1, RUNS + 1):
                result = run_once(w, seed, spec["run_seconds"])
                result["seed"] = seed
                runs[w][s].append(result)
                print(f"set {s + 1} {w} seed {seed}: {json.dumps(result)}", flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        sets = runs[w]
        if not all(r["correct"] and r["metrics"] for rs in sets for r in rs):
            print("  FAIL: a run was not correct")
            ok = False
            continue
        shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
        by_seed = defaultdict(set)
        for rs in sets:
            for r in rs:
                by_seed[r["seed"]].update(r["digests"])
        stable = all(len(d) == 1 for d in by_seed.values())
        print(f"  failed share {sorted(shares)}; one digest per seed: {stable}")
        ok &= len(shares) == 1 and stable
        for name, m in metrics.items():
            medians = [statistics.median(r["metrics"][name]["value"] for r in rs) for rs in sets]
            spreads = [spread([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            gap = (medians[1] - medians[0]) / medians[0]
            bound = m["bound"]
            held = abs(gap) <= bound and max(spreads) <= bound
            ok &= held
            verdict = "ok" if max(spreads) <= bound / 3 and held else "spread above a third" if held else "FAIL"
            print(
                f"  {name:32s} medians {' '.join(f'{v:.6g}' for v in medians)}  "
                f"spreads {' '.join(f'{v:.3f}' for v in spreads)}  gap {gap:+.3f}  bound {bound}: {verdict}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
