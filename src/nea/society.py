"""Society harness: runs a set of agents against a scenario, tick by tick.

The harness owns everything outside a single agent's head: the shared clock,
the message bus (delivery at tick boundaries, one fresh id per delivered
copy), scheduled percept pulses, and the observation fabric — compliance and
violation announcements are routed to the issuing authority, whose reaction
policy answers the actor with an appraisal-carrying reply; watching agents
get a per-tick view of the public state and answer norm-deviant states with
social feedback.  That feedback is edge-triggered per watched target: its
state is judged once per tick and compared with its state the tick before
(every observer sees every target on every tick, so this is the same edge
as one per observer/target pair), and a duplicated observer id counts once.

Runs are deterministic for a given scenario and seed: agents are processed
in roster order, policies are pure, and the run seed's only consumer is the
shuffle applied to messages delivered to the same recipient in the same tick.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from .affect import render_feedback
from .core import (
    AgentConfig,
    Ilf,
    Message,
    agent_from_program,
)
from .cycle import (
    OBSERVER_CHANNEL,
    EnvironmentView,
    InterpreterFault,
    QuietTick,
    TraceEntry,
    expand,
    tick as agent_tick,
)
from .lang import (
    LangError,
    Literal,
    norm_from_literal,
    parse_agent_program,
    parse_literal_text,
    render_literal,
)

#: Broadcast pseudo-recipient: everyone except the sender.
BROADCAST = "ALL"

METRICS_COLUMNS = (
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
)


class ScenarioError(ValueError):
    """The scenario file is malformed or inconsistent."""


def _finite(value) -> bool:
    """A number a float holds: not a bool, NaN, ±inf or an int too large for
    a float (``json.loads`` returns each of those)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _number_pair(value, key: str) -> tuple:
    """An appraisal-style pair: exactly two finite numbers, kept as written."""
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_finite, value)):
        raise ScenarioError(f"scenario {key!r} must be a pair of two numbers, got {value!r}")
    return tuple(value)


def _integer(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"scenario {key!r} must be an integer, got {value!r}")
    return value


def _ticks(value, key: str) -> int:
    ticks = _integer(value, key)
    if ticks < 0:
        raise ScenarioError(f"scenario {key!r} must not be negative, got {ticks}")
    return ticks


def _number(value, key: str) -> float:
    if not _finite(value):
        raise ScenarioError(f"scenario {key!r} must be a number, got {value!r}")
    return float(value)


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"scenario {key!r} must be an object, got {value!r}")
    return value


def _array(value, key: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"scenario {key!r} must be a list, got {value!r}")
    return tuple(value)


def _strings(value, key: str) -> tuple:
    items = _array(value, key)
    if not all(isinstance(v, str) for v in items):
        raise ScenarioError(f"scenario {key!r} must be a list of strings, got {value!r}")
    return items


@dataclass
class PerceptPulse:
    agents: tuple[str, ...]
    literal: Literal
    at: int | None = None  # one-shot tick
    start: int | None = None  # periodic: first tick
    period: int | None = None

    def fires(self, t: int) -> bool:
        if self.at is not None:
            return t == self.at
        return t >= self.start and (t - self.start) % self.period == 0


@dataclass
class ObserverPolicy:
    """Harness-level observation fabric configuration."""

    public: tuple[str, ...] = ()  # functors visible in the public digest
    authority: str | None = None  # agent answering norm announcements
    reactions: dict = field(default_factory=dict)  # variant -> appraisal pair
    observers: tuple[str, ...] = ()  # agents judging the public state
    condition: tuple[str, ...] = ()  # literal texts of the punished state
    pair: tuple[float, float] = (0.0, 0.0)  # feedback appraisal
    target_roles: tuple[str, ...] = ()  # roles whose holders are watched


@dataclass
class ScenarioConfig:
    name: str
    ticks: int
    seed: int
    agents: list[dict]  # {"id", "program" (source text), "roles"}
    pulses: list[PerceptPulse]
    observation: ObserverPolicy
    delta: float = 0.1
    relevance_weight: float = 1.0
    relevance_threshold: float = 25.0
    decay_affect: float = 0.05
    decay_relevance: float = 0.05
    deviation_threshold: tuple[float, float] = (0.5, 0.5)

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, nesting too deep
            raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(raw, base=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base: Path | None = None) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ScenarioError(f"a scenario must be a JSON object, got {raw!r}")

        def need(key, typ):
            if key not in raw:
                raise ScenarioError(f"scenario is missing {key!r}")
            value = raw[key]
            if not isinstance(value, typ):
                raise ScenarioError(f"scenario {key!r} must be {typ.__name__}")
            return value

        agents_raw = need("agents", list)
        if not agents_raw:
            raise ScenarioError("scenario declares no agents")
        agents: list[dict] = []
        seen: set[str] = set()
        for i, spec in enumerate(agents_raw):
            if not isinstance(spec, dict) or "id" not in spec or "program" not in spec:
                raise ScenarioError("each agent needs an id and a program")
            if not isinstance(spec["id"], str):
                raise ScenarioError(f"agent id {spec['id']!r} must be a string")
            if spec["id"] == BROADCAST:
                raise ScenarioError(f"scenario 'agents[{i}].id' {BROADCAST!r} names every agent")
            if spec["id"] in seen:
                raise ScenarioError(f"duplicate agent id {spec['id']!r}")
            seen.add(spec["id"])
            source = spec["program"]
            if not isinstance(source, str):
                raise ScenarioError(f"scenario 'agents[{i}].program' must be a string, got {source!r}")
            if source.endswith(".nea"):
                if base is None:
                    raise ScenarioError("program file paths need a scenario directory")
                try:
                    source = (base / source).read_text(encoding="utf-8")
                except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, NUL in the name
                    raise ScenarioError(f"scenario 'agents[{i}].program': {exc}") from exc
            agents.append(
                {
                    "id": spec["id"],
                    "program": source,
                    "roles": _strings(spec.get("roles", ()), f"agents[{i}].roles"),
                }
            )

        pulses: list[PerceptPulse] = []
        for i, p in enumerate(_array(raw.get("percepts", ()), "percepts")):
            key = f"percepts[{i}]"
            _object(p, key)
            targets = _strings(p.get("agents", ()), f"{key}.agents")
            unknown = [a for a in targets if a not in seen]
            if unknown:
                raise ScenarioError(f"percept pulse targets unknown agents {unknown}")
            text = p.get("literal")
            if not isinstance(text, str):
                raise ScenarioError(f"scenario '{key}.literal' must be a string, got {text!r}")
            try:
                lit = parse_literal_text(text)
                if lit.functor == "norm":  # Perceive adopts it: it must be a norm
                    norm_from_literal(lit)
            except LangError as exc:
                raise ScenarioError(f"scenario '{key}.literal' {text!r}: {exc}") from exc
            if "at" in p:
                pulses.append(PerceptPulse(targets, lit, at=_integer(p["at"], f"{key}.at")))
            elif "from" in p and "period" in p:
                start = _integer(p["from"], f"{key}.from")
                period = _integer(p["period"], f"{key}.period")
                if period <= 0:
                    raise ScenarioError(f"{key}: percept period must be positive")
                pulses.append(PerceptPulse(targets, lit, start=start, period=period))
            else:
                raise ScenarioError(f"{key}: percept pulse needs 'at' or 'from'+'period'")

        obs_raw = _object(raw.get("observation", {}), "observation")
        feedback = _object(obs_raw.get("feedback", {}), "observation.feedback")
        reactions = _object(obs_raw.get("reactions", {}), "observation.reactions")
        authority = obs_raw.get("authority")
        if authority is not None and not isinstance(authority, str):
            raise ScenarioError(f"scenario 'observation.authority' must be a string, got {authority!r}")
        observation = ObserverPolicy(
            public=_strings(obs_raw.get("public", ()), "observation.public"),
            authority=authority,
            reactions={
                k: _number_pair(v, f"observation.reactions.{k}") for k, v in reactions.items()
            },
            observers=_strings(feedback.get("observers", ()), "observation.feedback.observers"),
            condition=_array(feedback.get("condition", ()), "observation.feedback.condition"),
            pair=_number_pair(feedback.get("pair", (0.0, 0.0)), "observation.feedback.pair"),
            target_roles=_strings(
                feedback.get("targets_roles", ()), "observation.feedback.targets_roles"
            ),
        )
        if observation.authority is not None and observation.authority not in seen:
            raise ScenarioError(f"observation authority {observation.authority!r} is not an agent")
        for obs in observation.observers:
            if obs not in seen:
                raise ScenarioError(f"observer {obs!r} is not an agent")
        for text in observation.condition:
            if not isinstance(text, str):
                raise ScenarioError(f"observation.feedback.condition {text!r} must be a string")
            try:
                functor = parse_literal_text(text).functor
            except LangError as exc:
                raise ScenarioError(f"observation.feedback.condition {text!r}: {exc}") from exc
            if functor not in observation.public:
                raise ScenarioError(
                    f"observation.feedback.condition {text!r} is not public "
                    f"(observation.public: {list(observation.public)})"
                )

        params = _object(raw.get("params", {}), "params")

        def param(name, default):
            return _number(params.get(name, default), f"params.{name}")

        name = raw.get("name", "scenario")
        if not isinstance(name, str):
            raise ScenarioError(f"scenario 'name' must be a string, got {name!r}")
        return cls(
            name=name,
            ticks=_ticks(need("ticks", object), "ticks"),
            seed=_integer(raw.get("seed", 0), "seed"),
            agents=agents,
            pulses=pulses,
            observation=observation,
            delta=param("delta", 0.1),
            relevance_weight=param("relevance_weight", 1.0),
            relevance_threshold=param("relevance_threshold", 25.0),
            decay_affect=param("decay_affect", 0.05),
            decay_relevance=param("decay_relevance", 0.05),
            deviation_threshold=_number_pair(
                params.get("deviation_threshold", (0.5, 0.5)), "params.deviation_threshold"
            ),
        )


# ----------------------------------------------------------------------
# the running society


def fraction_affected(roster: dict[str, AgentConfig], roles) -> float:
    """Fraction of the society holding one of the affected roles."""
    if roles == "ALL":
        return 1.0
    wanted = set(roles)
    hit = sum(1 for agent in roster.values() if wanted & set(agent.roles))
    return hit / len(roster)


def society_mood(roster: dict[str, AgentConfig]) -> tuple[float, float]:
    n = len(roster)
    p = sum(agent.Ta.sigma[0] for agent in roster.values()) / n
    a = sum(agent.Ta.sigma[1] for agent in roster.values()) / n
    return p, a


MetricsRow = tuple  # one metrics.csv row, its cells in METRICS_COLUMNS order
TraceItem = TraceEntry | QuietTick
#: Receives each tick's trace items and metrics rows as the tick ends.  A
#: trace item is a ``TraceEntry`` or a ``QuietTick`` record standing for an
#: agent-tick's sixteen entries; ``cycle.expand`` turns them into entries,
#: and the trace writers take both.
Sink = Callable[[list[TraceItem], list[MetricsRow]], None]


@dataclass
class RunResult:
    trace: list[TraceEntry]
    metrics: list[MetricsRow]
    roster: dict[str, AgentConfig]


class Society:
    def __init__(self, config: ScenarioConfig, *, seed: int | None = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.roster: dict[str, AgentConfig] = {}
        for spec in config.agents:
            try:
                program = parse_agent_program(spec["program"])
            except LangError as exc:
                where = f"{exc.line}:{exc.col}: " if exc.line is not None else ""
                raise ScenarioError(f"agent {spec['id']!r}: {where}{exc.message}") from exc
            self.roster[spec["id"]] = agent_from_program(
                spec["id"],
                program,
                roles=spec["roles"],
                relevance_threshold=config.relevance_threshold,
            )
        self._mids = itertools.count(1)
        self._pending: dict[str, list[Message]] = {aid: [] for aid in self.roster}
        self._frac_cache: dict = {}
        # the pulses aimed at each agent, in scenario order
        self._pulses: dict[str, list[PerceptPulse]] = {aid: [] for aid in self.roster}
        for pulse in config.pulses:
            for aid in dict.fromkeys(pulse.agents):
                self._pulses[aid].append(pulse)
        policy = config.observation
        self._condition = [parse_literal_text(text) for text in policy.condition]
        self._feedback = render_feedback([(text, True) for text in policy.condition], policy.pair)
        self._observers = tuple(dict.fromkeys(policy.observers))
        wanted = set(policy.target_roles)
        self._targets = [
            (target_id, target)
            for target_id, target in self.roster.items()
            if not wanted or wanted & set(target.roles)
        ]
        # each watched target's judged state on the last tick
        self._watched: dict[str, bool] = {target_id: False for target_id, _ in self._targets}

    # -- routing -------------------------------------------------------

    def _fraction(self, roles) -> float:
        key = roles if isinstance(roles, str) else tuple(roles)
        if key not in self._frac_cache:
            self._frac_cache[key] = fraction_affected(self.roster, roles)
        return self._frac_cache[key]

    def _deliver_copy(self, message: Message, recipient: str) -> None:
        copy = Message(
            mid=next(self._mids),
            sender=message.sender,
            ilf=message.ilf,
            content=message.content,
            norm=message.norm,
            appraisal=message.appraisal,
            recipient=recipient,
        )
        self._pending[recipient].append(copy)

    def _route(self, outbound: list[Message]) -> None:
        """Deliver mail; announcements are handled by ``_authority_react``."""
        for message in outbound:
            if message.recipient == OBSERVER_CHANNEL:
                continue
            if message.recipient == BROADCAST:
                for aid in self.roster:
                    if aid != message.sender:
                        self._deliver_copy(message, aid)
            elif message.recipient in self.roster:
                self._deliver_copy(message, message.recipient)
            else:
                raise InterpreterFault(
                    message.sender, "ExecInt", f"message to unknown recipient {message.recipient!r}"
                )

    # -- observation fabric ---------------------------------------------

    def _authority_react(self, announcements: list[tuple[Message, str]]) -> None:
        """Answer each (announcement, its variant) with the reaction pair."""
        policy = self.config.observation
        if policy.authority is None:
            return
        for message, variant in announcements:
            if message.sender == policy.authority:
                continue
            pair = policy.reactions.get(variant)
            if pair is None:
                continue
            reply = Message(
                mid=-1,
                sender=policy.authority,
                ilf=Ilf.Tell,
                content=f'norm_feedback("{variant}")',
                norm=message.norm,
                appraisal=pair,
            )
            self._deliver_copy(reply, message.sender)

    def _observers_react(self) -> None:
        """Edge-triggered peer feedback on the public state.

        Every condition literal is public (checked at load), so a target's
        public state contains the condition exactly when the target holds
        every condition literal.  That is judged once per watched target and
        compared with the target's state last tick; each observer then sends
        feedback to every other target whose state rose from False to True.
        """
        if not self._observers or not self._condition:
            return
        lits, watched = self._condition, self._watched
        risen = []
        for target_id, target in self._targets:
            state = all(target.holds(lit) for lit in lits)
            if state and not watched[target_id]:
                risen.append(target_id)
            watched[target_id] = state
        if not risen:
            return
        for observer in self._observers:
            feedback = Message(mid=-1, sender=observer, ilf=Ilf.Tell, content=self._feedback)
            for target_id in risen:
                if target_id != observer:
                    self._deliver_copy(feedback, target_id)

    # -- one tick --------------------------------------------------------

    def _percepts_for(self, agent_id: str, t: int) -> set:
        return {pulse.literal for pulse in self._pulses[agent_id] if pulse.fires(t)}

    def _env(self, t: int) -> EnvironmentView:
        cfg = self.config
        return EnvironmentView(
            tick=t,
            n_agents=len(self.roster),
            fraction=self._fraction,
            relevance_weight=cfg.relevance_weight,
            delta=cfg.delta,
            decay_affect=cfg.decay_affect,
            decay_relevance=cfg.decay_relevance,
            deviation_threshold=cfg.deviation_threshold,
        )

    # `_unused` only keeps the positional slot that bench/child.py's wrapper passes
    def run_tick(self, t: int, _unused=None) -> tuple[list[TraceItem], list[MetricsRow]]:
        """Run tick *t*; returns its trace items (entries, and one
        ``QuietTick`` per quiet agent-tick) and its metrics rows, as a
        ``Sink`` receives them."""
        # 1. deliver last tick's mail; same-tick batches arrive in an order
        #    drawn from the run seed
        for aid in self.roster:
            batch = self._pending[aid]
            if batch:
                self.rng.shuffle(batch)
                self.roster[aid].M.In.extend(batch)
                self._pending[aid] = []

        # 2. each agent runs one full tick (independent: mail and observation
        #    land at tick boundaries)
        results: dict[str, tuple[list[TraceItem], list[Message]]] = {}
        actions_before = {aid: len(agent.C.A) for aid, agent in self.roster.items()}
        trace: list[TraceItem] = []
        announcements: list[tuple[Message, str]] = []
        announced: dict[str, str] = {}  # an agent's last variant this tick
        env = self._env(t)
        try:
            for aid, agent in self.roster.items():
                env.percepts = self._percepts_for(aid, t)
                results[aid] = agent_tick(agent, env)

            # 3. route outbound mail and announcements, then let the
            #    observation fabric react to what this tick produced
            for aid in self.roster:
                entries, outbound = results[aid]
                trace.extend(entries)
                for message in outbound:
                    if message.recipient == OBSERVER_CHANNEL:
                        variant = announced[aid] = _announced_variant(message)
                        announcements.append((message, variant))
                self._route(outbound)
        except InterpreterFault as exc:
            exc.tick = t
            raise
        self._authority_react(announcements)
        self._observers_react()

        # 4. metrics rows
        mood = tuple(f"{m:.6f}" for m in society_mood(self.roster))
        rows: list[MetricsRow] = []
        for aid, agent in self.roster.items():
            nb = agent.NB[0] if agent.NB else None
            new_actions = agent.C.A[actions_before[aid]:]
            rows.append(
                (
                    t,
                    aid,
                    f"{agent.Ta.sigma[0]:.6f}",
                    f"{agent.Ta.sigma[1]:.6f}",
                    nb.id if nb else "",
                    f"{nb.relevance:.6f}" if nb else "",
                    render_literal(new_actions[-1]) if new_actions else "",
                    announced.get(aid, ""),
                    *mood,
                )
            )
        return trace, rows

    def meta(self, ticks: int) -> dict:
        """The run's description: the structured trace's first line."""
        return {
            "scenario": self.config.name,
            "seed": self.seed,
            "ticks": ticks,
            "agents": list(self.roster),
        }

    def run(self, *, ticks: int | None = None, sink: Sink | None = None) -> RunResult:
        """Run every tick.  *sink* receives each tick's trace items (entries
        and ``QuietTick`` records, see ``Sink``) and metrics rows as the tick
        ends; without one the rows are collected into ``RunResult.metrics``
        and the items, expanded into plain entries, into ``RunResult.trace``."""
        total = self.config.ticks if ticks is None else ticks
        result = RunResult(trace=[], metrics=[], roster=self.roster)
        if sink is None:

            def sink(items: list[TraceItem], rows: list[MetricsRow]) -> None:
                result.trace.extend(expand(items))
                result.metrics.extend(rows)

        for t in range(total):
            sink(*self.run_tick(t))
        return result


def _announced_variant(message: Message) -> str:
    lit = parse_literal_text(message.content)
    if lit.functor != "norm_result" or len(lit.args) != 2:
        return ""
    return str(lit.args[1])


# ----------------------------------------------------------------------
# writers


def write_metrics(rows: list[MetricsRow], fh: TextIO) -> None:
    """Append CSV rows; the header is the row ``METRICS_COLUMNS``.  *fh* is
    opened with ``newline=""``, as the csv module asks."""
    csv.writer(fh).writerows(rows)


def _quiet_template(agent: str, line: Callable[[TraceEntry], str], split) -> tuple[tuple, tuple]:
    """The lines of a ``QuietTick``'s fifteen entries for *agent*, as
    (head, tail): their text at tick T with UpAs summary U is
    ``T.join(head) + U + T.join(tail)``.

    The pieces come from *line*, the writer's own line function, run on the
    record's entries at tick 0.  *split* cuts each line at its tick field:
    ``str.partition`` where that field comes first in a line,
    ``str.rpartition`` where it comes last.  The UpAs line is also cut at
    its summary, the last field that can hold the summary's text in either
    format; that text is ASCII digits and punctuation, which both formats
    write as it is.
    """
    probe = QuietTick(0, agent, "0 applied, sigma [0.000,0.000]", None)
    pieces, at = [""], 0
    for entry in probe.entries()[:-1]:
        before, zero, after = split(line(entry), "0")
        if zero != "0":
            raise ValueError(f"no tick field where {split.__name__} looks in {line(entry)!r}")
        pieces[-1] += before
        pieces.append(after)
        if entry.step == "UpAs":
            at = len(pieces) - (1 if probe.upas in after else 2)
    before, _, after = pieces[at].rpartition(probe.upas)
    return (*pieces[:at], before), (after, *pieces[at + 1 :])


def _write_items(trace: list[TraceItem], fh: TextIO, line: Callable[[TraceEntry], str], template) -> None:
    """Write *line* of each entry; a ``QuietTick`` from *template* (its
    agent's ``_quiet_template``), then its decay entry's line."""

    def lines():
        for item in trace:
            if type(item) is QuietTick:
                head, tail = template(item.agent)
                t = str(item.tick)
                yield t.join(head) + item.upas + t.join(tail) + line(item.decay)
            else:
                yield line(item)

    fh.write("".join(lines()))


def _text_line(e: TraceEntry) -> str:
    return e.text() + "\n"


@functools.lru_cache(maxsize=4096)
def _text_template(agent: str) -> tuple[tuple, tuple]:
    return _quiet_template(agent, _text_line, str.partition)


def write_trace_text(trace: list[TraceItem], fh: TextIO) -> None:
    """Append one ``TraceEntry.text()`` line per entry, sixteen per
    ``QuietTick``."""
    _write_items(trace, fh, _text_line, _text_template)


def write_trace_meta(meta: dict, fh: TextIO) -> None:
    """Write the structured trace's first line."""
    fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")


_encode_str = json.encoder.encode_basestring_ascii


def _payload_encoder() -> Callable[[dict], str]:
    """``JSONEncoder(sort_keys=True).encode`` for a payload dict, with the
    C encoder built once instead of on every call.  Without the ``_json``
    accelerator (``c_make_encoder`` is None) it is that method itself."""
    make = json.encoder.c_make_encoder
    base = json.JSONEncoder(sort_keys=True)
    if make is None:
        return base.encode
    markers: dict = {}
    # the arguments JSONEncoder.iterencode passes for a one-shot encode
    c_encode = make(
        markers, base.default, _encode_str, base.indent, base.key_separator,
        base.item_separator, base.sort_keys, base.skipkeys, base.allow_nan,
    )

    def encode(payload: dict) -> str:
        try:
            return "".join(c_encode(payload, 0))
        except BaseException:
            # a failed encode leaves its open containers in the circular-
            # reference markers, which the next payload would trip over
            markers.clear()
            raise

    return encode


_encode_payload = _payload_encoder()


def _structured_line(e: TraceEntry) -> str:
    """One JSON record, assembled in the sorted key order: byte for byte what
    ``json.dumps(record, sort_keys=True)`` gives, at a fraction of its cost."""
    return (
        f'{{"agent": {_encode_str(e.agent)}, '
        f'"payload": {_encode_payload(e.payload) if e.payload else "{}"}, '
        f'"step": {_encode_str(e.step)}, '
        f'"summary": {_encode_str(e.summary)}, '
        f'"tick": {e.tick}}}\n'
    )


@functools.lru_cache(maxsize=4096)
def _structured_template(agent: str) -> tuple[tuple, tuple]:
    return _quiet_template(agent, _structured_line, str.rpartition)


def write_trace_structured(trace: list[TraceItem], fh: TextIO) -> None:
    """Append one JSON record per entry, sixteen per ``QuietTick``."""
    _write_items(trace, fh, _structured_line, _structured_template)
