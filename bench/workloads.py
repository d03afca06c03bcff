"""Workload generators: each turns a seed into a scenario for `nea run`.

A generator returns a `Workload`: the scenario (written under a work
directory when it is generated), the `nea run` arguments that run it, and
the expectations the output checks hold it to.  Only the scenario files
reach the program; the expectations stay with the benchmark.  A seed
changes names, orders and values, never counts or schedules, so that it
does not change how much work a run is.

* mask-long    -- the bundled `mask` scenario at its seed 7, run long.  The
  seed argument does not change it: it is the behavioural oracle.
* campus-crowd -- the mask campus at 81 agents: the rectorate, 40
  professors alternating the two professor programs, 40 students of whom
  16 observe.  The seed shuffles the roster, splits the professors into
  four patrol groups and picks the observers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

PATROL_PERIOD = 24  # ticks between exit_classroom pulses in the mask campus

#: The exit plan without the mask on campus: the rebel's form, and the form
#: the conformist's exit plan takes once campus feedback revises it.
UNMASKED_EXIT = ("-in_classroom", "-wearing_mask", "+in_campus", "+enjoy_freetime", "+enter_classroom")


@dataclass
class Workload:
    name: str
    seed: int
    scenario: str  # builtin name or path of the scenario.json
    ticks: int
    trace_format: str  # "text" or "structured"
    roster: list[str]  # agent ids in declaration order
    files: dict[str, str] = field(default_factory=dict)  # file name -> text
    expect: dict = field(default_factory=dict)  # what the output checks hold

    def run_args(self, out: Path) -> list[str]:
        args = ["run", self.scenario, "--ticks", str(self.ticks), "--out", str(out)]
        args += ["--trace-format", self.trace_format, "--seed", str(self.expect["run_seed"])]
        return args

    @property
    def trace_name(self) -> str:
        return "trace.jsonl" if self.trace_format == "structured" else "trace.txt"

    def write(self, workdir: Path) -> None:
        """Write the scenario files and point `scenario` at them."""
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        if self.files:
            self.scenario = str(workdir / "scenario.json")


# ----------------------------------------------------------------------
# mask-long


MASK_LONG_TICKS = 3000


def mask_long(seed: int, src: Path) -> Workload:
    raw = json.loads((src / "nea" / "scenarios" / "mask" / "scenario.json").read_text(encoding="utf-8"))
    roster = [spec["id"] for spec in raw["agents"]]
    return Workload(
        name="mask-long",
        seed=seed,
        scenario="mask",
        ticks=MASK_LONG_TICKS,
        trace_format="text",
        roster=roster,
        expect={
            "run_seed": 7,
            "conformists": ["prof_conformist"],
            "rebels": ["prof_rebel"],
            "conformist_breaks": (0, 0),
            "rebel_breaks": (1, 2),
            "period": PATROL_PERIOD,
        },
    )


# ----------------------------------------------------------------------
# campus-crowd

CAMPUS_PROFESSORS = 40
CAMPUS_STUDENTS = 40
CAMPUS_OBSERVERS = 16
CAMPUS_GROUPS = 4
CAMPUS_TICKS = 200

RECTORATE = """\
!announce.

+!announce <- .sendMsg(ALL, norm("obligation", "np__enter_classroom : in_campus <- put_on(mask); +wearing_mask.", 0, 4.0, ["student"], [0.3,0.1])).

personality__: { [0.5,0.5,0.5,0.5,0.5], 1.0, 0.0 }.
roles__: { authority }.
"""

PROFESSOR_CONFORMIST = """\
in_campus.

+enter_classroom : in_campus <- -enter_classroom; +in_classroom; -in_campus; work.
+exit_classroom : in_classroom <- -in_classroom; +in_campus; +enjoy_freetime; +enter_classroom.

personality__: { [0.3,0.4,0.6,0.7,0.2], 0.9, 0.2 }.
roles__: { professor }.
"""

PROFESSOR_REBEL = """\
in_campus.

+enter_classroom : in_campus <- -enter_classroom; +in_classroom; -in_campus; work.
+exit_classroom : in_classroom <- -in_classroom; -wearing_mask; +in_campus; +enjoy_freetime; +enter_classroom.

personality__: { [0.7,0.3,0.4,0.2,0.6], 0.8, 0.8 }.
roles__: { professor }.
"""

STUDENT = """\
in_campus.

personality__: { [0.5,0.5,0.5,0.5,0.5], 0.7, 0.1 }.
roles__: { student }.
"""


def campus_crowd(seed: int, src: Path) -> Workload:
    rng = random.Random(f"campus-crowd:{seed}")
    professors = [
        (f"prof_{'c' if i % 2 == 0 else 'r'}{i:03d}", i % 2 == 0) for i in range(CAMPUS_PROFESSORS)
    ]
    students = [f"student_{i:03d}" for i in range(CAMPUS_STUDENTS)]
    members = [(pid, "professor_conformist.nea" if conf else "professor_rebel.nea") for pid, conf in professors]
    members += [(sid, "student.nea") for sid in students]
    rng.shuffle(members)
    agents = [{"id": "rectorate", "program": "rectorate.nea"}]
    agents += [{"id": aid, "program": prog} for aid, prog in members]
    n_agents = len(agents)

    shuffled = [pid for pid, _ in professors]
    rng.shuffle(shuffled)
    groups = [sorted(shuffled[g::CAMPUS_GROUPS]) for g in range(CAMPUS_GROUPS)]
    percepts = []
    for g, group in enumerate(groups):
        offset = g * (PATROL_PERIOD // CAMPUS_GROUPS)
        percepts.append({"agents": group, "literal": "enter_classroom", "at": 4 + offset})
        percepts.append(
            {"agents": group, "literal": "exit_classroom", "from": 14 + offset, "period": PATROL_PERIOD}
        )
    observers = sorted(rng.sample(students, CAMPUS_OBSERVERS))

    scenario = {
        "name": "campus-crowd",
        "ticks": CAMPUS_TICKS,
        "seed": seed,
        "agents": agents,
        "percepts": percepts,
        "observation": {
            "public": ["wearing_mask", "in_campus"],
            "authority": "rectorate",
            "reactions": {"comply": [0.6, 0.2], "break": [-0.6, -0.2]},
            "feedback": {
                "observers": observers,
                "condition": ["wearing_mask", "in_campus"],
                "pair": [-0.3, -0.1],
                "targets_roles": ["professor"],
            },
        },
        # the mask parameters, with delta scaled so that one reply moves a
        # norm's relevance as far as it does in the five-agent mask
        "params": {
            "delta": 2.0 * n_agents / 5,
            "relevance_weight": 0.0125,
            "relevance_threshold": 3.0,
            "decay_affect": 0.3,
            "decay_relevance": 0.005,
            "deviation_threshold": [0.5, 0.5],
        },
    }
    files = {
        "scenario.json": json.dumps(scenario, indent=1, sort_keys=True) + "\n",
        "rectorate.nea": RECTORATE,
        "professor_conformist.nea": PROFESSOR_CONFORMIST,
        "professor_rebel.nea": PROFESSOR_REBEL,
        "student.nea": STUDENT,
    }
    return Workload(
        name="campus-crowd",
        seed=seed,
        scenario="",
        ticks=CAMPUS_TICKS,
        trace_format="structured",
        roster=[a["id"] for a in agents],
        files=files,
        expect={
            "run_seed": seed,
            "conformists": sorted(pid for pid, conf in professors if conf),
            "rebels": sorted(pid for pid, conf in professors if not conf),
            # at about half the roster affected, a conformist may break at its
            # first entry too; the feedback then settles it like the rebel
            "conformist_breaks": (0, 1),
            "rebel_breaks": (0, 1),
            "period": PATROL_PERIOD,
        },
    )


GENERATORS = {"mask-long": mask_long, "campus-crowd": campus_crowd}


def generate(name: str, seed: int, src: Path) -> Workload:
    return GENERATORS[name](seed, src)
