"""Output checks for one `nea run`, computed apart from the program.

Nothing here imports `nea`: the expected columns, the step graph and the
mask arc are written down from the paper's model and the documented output
formats, so that a change to the program cannot change what it is held to.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import defaultdict
from pathlib import Path

from workloads import UNMASKED_EXIT, Workload

METRICS_COLUMNS = [
    "tick",
    "agent",
    "pleasure",
    "arousal",
    "norm_id",
    "relevance",
    "action",
    "variant",
    "society_pleasure",
    "society_arousal",
]

#: The normative pass of one agent-tick: Perceive -> ... -> AffModB, with the
#: two shortcuts to AffModB (from ProcMsg after a norm-feedback reply, from
#: ExecInt after an appraisal-producing step).
NEXT_STEP = {
    "Perceive": {"ProcMsg"},
    "ProcMsg": {"SelEv", "AffModB"},
    "SelEv": {"RelPl"},
    "RelPl": {"ApplPl"},
    "ApplPl": {"SelAppl"},
    "SelAppl": {"AddIM"},
    "AddIM": {"SelInt"},
    "SelInt": {"ExecInt"},
    "ExecInt": {"ClrInt", "AffModB"},
    "ClrInt": {"AffModB"},
}
#: The affective pass and the decay step that close every agent-tick.
TAIL = ("Appr", "UpAs", "SelCs", "Cope", "AsNrDecay")

# Six decimals are printed; a mean of printed values and a printed mean can
# then differ by one unit in the last place.
MOOD_TOLERANCE = 1.0000001e-6

REVISED = re.compile(r", revised (\d+) plan\(s\)$")


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(out: Path, wl: Workload) -> str:
    h = hashlib.sha256()
    for name in ("metrics.csv", wl.trace_name):
        h.update((out / name).read_bytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# metrics.csv


def read_metrics(path: Path, wl: Workload) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        require(reader.fieldnames == METRICS_COLUMNS, f"metrics.csv columns {reader.fieldnames}")
        rows = list(reader)
    n = len(wl.roster)
    require(len(rows) == n * wl.ticks, f"metrics.csv has {len(rows)} rows, want {n} x {wl.ticks}")
    for i, row in enumerate(rows):
        want = (str(i // n), wl.roster[i % n])
        require((row["tick"], row["agent"]) == want, f"metrics.csv row {i + 2} is {row['tick']},{row['agent']}, want {want}")
    return rows


def check_metrics(rows: list[dict], wl: Workload) -> None:
    n = len(wl.roster)
    for start in range(0, len(rows), n):
        tick_rows = rows[start : start + n]
        for col in ("pleasure", "arousal"):
            values = [float(r[col]) for r in tick_rows]
            require(all(-1.0 <= v <= 1.0 for v in values), f"tick {start // n}: {col} outside [-1, 1]")
            mean = sum(values) / n
            for r in tick_rows:
                society = float(r[f"society_{col}"])
                require(
                    abs(society - mean) <= MOOD_TOLERANCE,
                    f"tick {r['tick']} {r['agent']}: society_{col} {society} is not the mean {mean:.7f}",
                )
        for r in tick_rows:
            require(r["relevance"] == "" or float(r["relevance"]) >= 0.0, f"tick {r['tick']} {r['agent']}: negative relevance")
            require(r["variant"] in ("", "comply", "break"), f"tick {r['tick']} {r['agent']}: variant {r['variant']!r}")


# ----------------------------------------------------------------------
# trace


def read_trace(path: Path, wl: Workload) -> list[tuple[int, str, str, str]]:
    """(tick, agent, step, summary) per line, from either trace format."""
    entries = []
    with path.open(encoding="utf-8") as fh:
        if wl.trace_format == "structured":
            meta = json.loads(fh.readline())
            want = {"agents": wl.roster, "scenario": wl.name, "seed": wl.expect["run_seed"], "ticks": wl.ticks}
            require(meta == {"meta": want}, f"trace.jsonl meta line {meta}")
            for line in fh:
                record = json.loads(line)
                entries.append((record["tick"], record["agent"], record["step"], record["summary"]))
        else:
            for line in fh:
                tick, agent, step, summary = line.rstrip("\n").split("\t", 3)
                entries.append((int(tick), agent, step, summary))
    return entries


def check_walks(entries: list[tuple[int, str, str, str]], wl: Workload) -> None:
    """Every agent-tick, in tick and then roster order, is a legal walk."""
    pos = 0
    for t in range(wl.ticks):
        for agent in wl.roster:
            where = f"tick {t} {agent}"
            require(pos < len(entries) and entries[pos][:3] == (t, agent, "Perceive"), f"{where}: no Perceive at trace entry {pos}")
            step = "Perceive"
            pos += 1
            while step != "AffModB":
                require(pos < len(entries) and entries[pos][:2] == (t, agent), f"{where}: walk ends after {step}")
                nxt = entries[pos][2]
                require(nxt in NEXT_STEP[step], f"{where}: illegal step {step} -> {nxt}")
                step = nxt
                pos += 1
            for want in TAIL:
                require(pos < len(entries) and entries[pos][:3] == (t, agent, want), f"{where}: {want} missing after {step}")
                step = want
                pos += 1
    require(pos == len(entries), f"trace has {len(entries) - pos} entries past the last agent-tick")


# ----------------------------------------------------------------------
# workload arcs


def announcements(rows: list[dict]) -> dict[str, list[tuple[int, str]]]:
    out: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for r in rows:
        if r["variant"]:
            out[r["agent"]].append((int(r["tick"]), r["variant"]))
    return out


def check_mask_arc(rows: list[dict], entries: list, wl: Workload) -> None:
    """The mask arc, for every professor over the whole horizon.

    Breaks come only first and are few; every later entry complies.  Each
    conformist's exit plan is revised once, into the unmasked form the rebel
    starts with; rebels are never revised.  Within one patrol period of its
    revision no professor walks the campus masked again, and each professor
    announces and leaves the classroom about once per patrol period.
    """
    period = wl.expect["period"]
    said = announcements(rows)
    execs: dict[str, list[tuple[int, str]]] = defaultdict(list)
    exits: dict[str, list[int]] = defaultdict(list)  # index into execs at each exit
    revisions: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for tick, agent, step, summary in entries:
        if step == "ExecInt" and summary != "idle":
            execs[agent].append((tick, summary))
        elif step == "SelAppl" and summary == "+exit_classroom":
            exits[agent].append(len(execs[agent]))
        elif step == "SelCs" and (m := REVISED.search(summary)):
            revisions[agent].append((tick, int(m.group(1))))

    for role in ("conformists", "rebels"):
        low, high = wl.expect[f"{role[:-1]}_breaks"]
        for agent in wl.expect[role]:
            seq = [variant for _, variant in said[agent]]
            breaks = seq.count("break")
            require(low <= breaks <= high, f"{agent}: {breaks} breaks, want {low}..{high}")
            require(seq[:breaks] == ["break"] * breaks, f"{agent}: breaks after complying: {seq[:8]}...")
            expected = wl.ticks / period
            require(abs(len(seq) - expected) <= 2, f"{agent}: {len(seq)} announcements in {wl.ticks} ticks, want about {expected:.0f}")
            found = len(exits[agent])
            require(abs(found - expected) <= 2, f"{agent}: {found} exits in {wl.ticks} ticks, want about {expected:.0f}")

            revised = revisions[agent]
            if role == "conformists":
                require([n for _, n in revised] == [1], f"{agent}: revisions {revised}, want one of one plan")
                settled = revised[0][0]
            else:
                require(not revised, f"{agent}: rebel revised {revised}")
                settled = -1
            for start in exits[agent]:
                steps = execs[agent][start : start + len(UNMASKED_EXIT)]
                if steps and steps[0][0] > settled:
                    require(
                        tuple(s for _, s in steps) == UNMASKED_EXIT,
                        f"{agent}: exit at tick {steps[0][0]} ran {[s for _, s in steps]}",
                    )

            held = {"in_campus": True, "wearing_mask": False}
            for tick, summary in execs[agent]:
                if summary[1:] in held:
                    held[summary[1:]] = summary[0] == "+"
                    if held["in_campus"] and held["wearing_mask"]:
                        require(
                            revised and tick < revised[0][0] + period,
                            f"{agent}: masked on campus at tick {tick}, revisions {revised}",
                        )


def check_outputs(out: Path, wl: Workload) -> None:
    rows = read_metrics(out / "metrics.csv", wl)
    check_metrics(rows, wl)
    entries = read_trace(out / wl.trace_name, wl)
    check_walks(entries, wl)
    check_mask_arc(rows, entries, wl)
