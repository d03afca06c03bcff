"""Per-layer tracer for one traced `nea run` process.

`Tracer.install` replaces each layer's public functions under the names
their callers look them up by (`nea.cycle.run_decay`,
`nea.society.agent_tick`, `nea.society.parse_agent_program`, ...).  A timed
wrapper opens a span; a layer's self time is the span's duration minus the
time of the measured spans it called, so the self times of the layers that
run inside the tick loop add up to the loop, and what they leave over is
reported as `loop.unattributed_s`.  A counting wrapper only counts calls.
GC pauses are timed through `gc.callbacks`; a pause also lands in the self
time of whichever span was open when it struck.

The program itself is not changed: everything here is undone when the
process exits.
"""

from __future__ import annotations

import gc
import importlib
import time
from collections import Counter, defaultdict

STEP_LABELS = (
    "Perceive",
    "ProcMsg",
    "SelEv",
    "RelPl",
    "ApplPl",
    "SelAppl",
    "AddIM",
    "SelInt",
    "ExecInt",
    "ClrInt",
    "AffModB",
)

#: Timed layers: (module, attribute as the caller looks it up, layer).
SPANS = (
    ("nea.society", "ScenarioConfig.load", "society.load"),
    ("nea.society", "Society.__init__", "society.build"),
    ("nea.society", "parse_agent_program", "lang.parse_program"),
    ("nea.society", "Society.run_tick", "society.harness"),
    ("nea.society", "agent_tick", "cycle.tick"),
    ("nea.cycle", "check_invariants", "cycle.check_invariants"),
    ("nea.cycle", "run_affective_cycle", "cycle.affective"),
    ("nea.cycle", "run_decay", "cycle.decay"),
    ("nea.cycle", "order_applicable_plans", "norms.order_applicable_plans"),
    ("nea.cycle", "select_intention", "norms.select_intention"),
    ("nea.cycle", "comply_to_norm", "norms.comply_to_norm"),
    ("nea.cycle", "relevance_decay", "norms.relevance_decay"),
    ("nea.cycle", "detect_social_norm", "affect.detect_social_norm"),
    ("nea.cycle", "sync_beliefs", "affect.sync_beliefs"),
    ("nea.cli", "write_metrics", "io.write_metrics"),
    ("nea.cli", "write_trace_text", "io.write_trace"),
    ("nea.cli", "write_trace_structured", "io.write_trace"),
)

#: Literal parsing is timed only inside the tick loop; during set-up it is
#: part of `society.load`.
LOOP_SPANS = (
    ("nea.cycle", "parse_literal_text", "lang.parse_literal"),
    ("nea.society", "parse_literal_text", "lang.parse_literal"),
)

#: Counted calls: (module, attribute, counter).
COUNTS = (
    ("nea.lang.render", "render_literal", "lang.render_literal"),
    ("nea.cycle", "render_literal", "lang.render_literal"),
    ("nea.affect", "render_literal", "lang.render_literal"),
    ("nea.core", "render_literal", "lang.render_literal"),
    ("nea.society", "render_literal", "lang.render_literal"),
    ("nea.core", "AgentConfig.holds", "core.holds"),
    ("nea.cycle", "revise_plan", "affect.plan_revisions"),
    ("nea.society", "Society._deliver_copy", "society.messages_processed"),
)

#: Layers whose self time is spent outside the tick loop.
SETUP_AND_IO = {"society.load", "society.build", "lang.parse_program", "io.write_metrics", "io.write_trace"}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _replace(module: str, attr: str, make_wrapper) -> None:
    owner, name = _resolve(module, attr)
    raw = owner.__dict__[name] if isinstance(owner, type) else None
    wrapper = make_wrapper(getattr(owner, name))
    setattr(owner, name, staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._child = [0.0]  # time of measured callees, one slot per open span
        self._clock = time.perf_counter
        self.in_loop = False
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0
        self.trace_entries = 0
        self.mem_events = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, fn):
        child, self_s, calls, clock = self._child, self.self_s, self.calls, self._clock

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                self_s[layer] += spent - child.pop()
                child[-1] += spent
                calls[layer] += 1

        return wrapper

    def _loop_span(self, layer: str, fn):
        timed = self._span(layer, fn)

        def wrapper(*args, **kwargs):
            return timed(*args, **kwargs) if self.in_loop else fn(*args, **kwargs)

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _step(self, fn):
        """`cycle.step`, timed per label, with idle steps counted."""
        child, self_s, calls, clock = self._child, self.self_s, self.calls, self._clock
        layers = {label: f"cycle.step.{label}" for label in STEP_LABELS}

        def wrapper(agent, env):
            layer = layers[agent.s.value]
            child.append(0.0)
            start = clock()
            try:
                entry = fn(agent, env)
            finally:
                spent = clock() - start
                self_s[layer] += spent - child.pop()
                child[-1] += spent
                calls[layer] += 1
            if entry.summary == "idle":
                calls["cycle.idle_steps"] += 1
            return entry

        return wrapper

    def _utility(self, fn):
        """`compliance_utility`: one call is one comply/break decision."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            follow, breach = fn(*args, **kwargs)
            calls["norms.comply_decisions" if follow >= breach else "norms.break_decisions"] += 1
            return follow, breach

        return wrapper

    def _run(self, fn):
        """`Society.run`: marks the tick loop and keeps what it returned."""

        def wrapper(*args, **kwargs):
            self.in_loop = True
            try:
                result = fn(*args, **kwargs)
            finally:
                self.in_loop = False
            self.trace_entries = len(result.trace)
            self.mem_events = sum(len(agent.Mem) for agent in result.roster.values())
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self._clock()
            return
        self.gc_pause_s += self._clock() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    def install(self) -> None:
        for module, attr, layer in SPANS:
            _replace(module, attr, lambda fn, layer=layer: self._span(layer, fn))
        for module, attr, layer in LOOP_SPANS:
            _replace(module, attr, lambda fn, layer=layer: self._loop_span(layer, fn))
        for module, attr, name in COUNTS:
            _replace(module, attr, lambda fn, name=name: self._count(name, fn))
        _replace("nea.cycle", "step", self._step)
        _replace("nea.cycle", "compliance_utility", self._utility)
        _replace("nea.society", "Society.run", self._run)
        gc.callbacks.append(self._on_gc)

    # -- report -------------------------------------------------------------

    def report(self, loop_s: float) -> dict[str, float]:
        s, n = self.self_s, self.calls
        out: dict[str, float] = {
            "lang.parse_program_s": s["lang.parse_program"],
            "lang.parse_program_calls": n["lang.parse_program"],
            "lang.parse_literal_s": s["lang.parse_literal"],
            "lang.parse_literal_calls": n["lang.parse_literal"],
            "lang.render_literal_calls": n["lang.render_literal"],
        }
        steps = 0
        for label in STEP_LABELS:
            out[f"cycle.step.{label}_s"] = s[f"cycle.step.{label}"]
            steps += n[f"cycle.step.{label}"]
        out.update(
            {
                "cycle.steps": steps,
                "cycle.idle_steps": n["cycle.idle_steps"],
                "cycle.useful_step_ratio": (steps - n["cycle.idle_steps"]) / steps if steps else 0.0,
                "cycle.check_invariants_s": s["cycle.check_invariants"],
                "cycle.check_invariants_calls": n["cycle.check_invariants"],
                "cycle.affective_s": s["cycle.affective"],
                "cycle.decay_s": s["cycle.decay"],
                "cycle.trace_entries": self.trace_entries,
                "norms.order_applicable_plans_s": s["norms.order_applicable_plans"],
                "norms.select_intention_s": s["norms.select_intention"],
                "norms.comply_to_norm_s": s["norms.comply_to_norm"],
                "norms.relevance_decay_s": s["norms.relevance_decay"],
                "norms.comply_decisions": n["norms.comply_decisions"],
                "norms.break_decisions": n["norms.break_decisions"],
                "affect.detect_social_norm_s": s["affect.detect_social_norm"],
                "affect.detect_social_norm_calls": n["affect.detect_social_norm"],
                "affect.plan_revisions": n["affect.plan_revisions"],
                "affect.sync_beliefs_s": s["affect.sync_beliefs"],
                "core.mem_events": self.mem_events,
                "core.holds_calls": n["core.holds"],
                "society.load_s": s["society.load"],
                "society.build_s": s["society.build"],
                "society.harness_s": s["society.harness"],
                "society.messages_processed": n["society.messages_processed"],
                "io.write_metrics_s": s["io.write_metrics"],
                "io.write_trace_s": s["io.write_trace"],
                "runtime.gc_pause_s": self.gc_pause_s,
                "runtime.gc_gen2_collections": self.gc_gen2,
            }
        )
        attributed = sum(t for layer, t in s.items() if layer not in SETUP_AND_IO and layer != "cycle.tick")
        out["loop.traced_s"] = loop_s
        out["loop.unattributed_s"] = loop_s - attributed
        out["loop.unattributed_share"] = (loop_s - attributed) / loop_s if loop_s else 0.0
        return out
