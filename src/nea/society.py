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
from io import TextIOBase  # not typing.TextIO: importing typing costs ~3 ms
from pathlib import Path

from .core import AgentConfig, Message
from .cycle import (
    OBSERVER_CHANNEL,
    EnvironmentView,
    InterpreterFault,
    QuietTick,
    TraceEntry,
    agent_from_program,
    expand,
    tick as agent_tick,
    upas_summary,
)
from .lang import (
    AgentProgram,
    LangError,
    Literal,
    norm_from_literal,
    parse_agent_program,
    parse_literal_text,
    render_feedback,
    render_literal,
)
from .record import Record

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


def _not_negative(number, key: str):
    if number < 0:
        raise ScenarioError(f"scenario {key!r} must not be negative, got {number!r}")
    return number


def _ticks(value, key: str) -> int:
    return _not_negative(_integer(value, key), key)


def _number(value, key: str) -> float:
    if not _finite(value):
        raise ScenarioError(f"scenario {key!r} must be a number, got {value!r}")
    return float(value)


# affect decay scales sigma by 1 - rate: outside [0, 1] it pushes sigma away
# from neutral; relevance decay subtracts the rate, so any rate >= 0 decays
def _unit_rate(value, key: str) -> float:
    number = _number(value, key)
    if not 0.0 <= number <= 1.0:
        raise ScenarioError(f"scenario {key!r} must lie in [0, 1], got {value!r}")
    return number


def _rate(value, key: str) -> float:
    return _not_negative(_number(value, key), key)


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"scenario {key!r} must be a string, got {value!r}")
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


class PerceptPulse(Record):
    """Fires once at tick *at*, or every *period* ticks from *start*."""

    __slots__ = _fields = ("agents", "literal", "at", "start", "period")

    def __init__(
        self, agents: tuple[str, ...], literal: Literal, at: int | None = None,
        start: int | None = None, period: int | None = None,
    ) -> None:
        self.agents, self.literal, self.at, self.start, self.period = agents, literal, at, start, period

    def fires(self, t: int) -> bool:
        if self.at is not None:
            return t == self.at
        return t >= self.start and (t - self.start) % self.period == 0


class ObserverPolicy(Record):
    """Harness-level observation fabric configuration."""

    __slots__ = _fields = ("public", "authority", "reactions", "observers", "condition", "pair", "target_roles")

    def __init__(
        self, public: tuple[str, ...], authority: str | None, reactions: dict, observers: tuple[str, ...],
        condition: tuple[str, ...], pair: tuple[float, float], targets_roles: tuple[str, ...],
    ) -> None:
        self.public = public  # functors visible in the public digest
        self.authority = authority  # agent answering norm announcements
        self.reactions = reactions  # variant -> appraisal pair
        self.observers = observers  # agents judging the public state
        self.condition = condition  # literal texts of the punished state
        self.pair = pair  # feedback appraisal
        self.target_roles = targets_roles  # roles whose holders are watched


# ----------------------------------------------------------------------
# the scenario schema: a key table per object and its walker.  A rule
# ``rule(value, key)`` returns the value as the config holds it, or raises a
# ScenarioError naming *key*, the value's path.

#: The default of a key that a scenario must give.
REQUIRED = object()


def _walk(value, key: str, table: dict, noun: str = "key", missing: str = "scenario is missing {}") -> dict:
    """*value*, an object of only the keys of *table* (another key is not a
    *noun*), as a dict of each key's value or default passed through its rule;
    a default of None leaves the key out.  An absent ``REQUIRED`` key raises
    *missing* with its path, once the present keys have passed."""
    if not isinstance(value, dict):
        raise ScenarioError(f"scenario {key!r} must be an object, got {value!r}")
    prefix = f"{key}." if key else ""
    for name in value:
        if name not in table:
            where = f"{prefix}{name}"  # a dict from code, not JSON, may have other keys than strings
            raise ScenarioError(f"scenario {where!r} is not a {noun} (one of {', '.join(table)})")
    checked = {}
    for name, (rule, default) in table.items():
        if name in value:
            checked[name] = rule(value[name], prefix + name)
        elif default is not None and default is not REQUIRED:
            checked[name] = rule(default, prefix + name)
    for name, (_, default) in table.items():
        if default is REQUIRED and name not in value:
            raise ScenarioError(missing.format(repr(prefix + name)))
    return checked


def _table(path: str, noun: str = "key") -> Callable:
    """The rule of a key whose value is the object *path* of ``SCHEMA``."""
    return lambda value, key: _walk(value, key, SCHEMA[path], noun)


def _agent_id(value, key: str) -> str:
    if not _string(value, key) or not value.isprintable():
        # the id is a field of every trace line and metrics row
        raise ScenarioError(f"scenario {key!r} must be non-empty and printable, got {value!r}")
    if value == BROADCAST:
        raise ScenarioError(f"scenario {key!r} {BROADCAST!r} names every agent")
    if value == OBSERVER_CHANNEL:
        raise ScenarioError(f"scenario {key!r} {OBSERVER_CHANNEL!r} is the announcement channel")
    return value


def _agents(value, key: str) -> list[dict]:
    if not isinstance(value, list):
        raise ScenarioError(f"scenario {key!r} must be list")
    if not value:
        raise ScenarioError("scenario declares no agents")
    missing = "each agent needs an id and a program: scenario is missing {}"
    return [_walk(spec, f"{key}[{i}]", SCHEMA["agents"], missing=missing) for i, spec in enumerate(value)]


def _percept_literal(value, key: str) -> Literal:
    try:
        lit = parse_literal_text(_string(value, key))
        if lit.functor == "norm":  # Perceive adopts it: it must be a norm
            norm_from_literal(lit)
    except LangError as exc:
        raise ScenarioError(f"scenario {key!r} {value!r}: {exc}") from exc
    return lit


def _period(value, key: str) -> int:
    if _integer(value, key) <= 0:
        raise ScenarioError(f"scenario {key!r}: a percept period must be positive, got {value!r}")
    return value


def _pulses(value, key: str) -> list[PerceptPulse]:
    pulses = []
    missing = "each percept pulse needs a literal: scenario {} must be a string"
    for i, spec in enumerate(_array(value, key)):
        p = _walk(spec, f"{key}[{i}]", SCHEMA["percepts"], missing=missing)
        if "at" in p and ("from" in p or "period" in p):
            raise ScenarioError(f"scenario '{key}[{i}]': a percept pulse takes 'at' or 'from'+'period', not both")
        if "at" not in p and ("from" not in p or "period" not in p):
            raise ScenarioError(f"scenario '{key}[{i}]': a percept pulse needs 'at' or 'from'+'period'")
        pulses.append(PerceptPulse(p["agents"], p["literal"], p.get("at"), p.get("from"), p.get("period")))
    return pulses


def _observation(value, key: str) -> ObserverPolicy:
    obs = _walk(value, key, SCHEMA["observation"])
    return ObserverPolicy(obs["public"], obs.get("authority"), obs["reactions"], **obs["feedback"])


#: The key table of each scenario object, by its path in docs/scenario.md:
#: {key: (rule, default)}, the default ``REQUIRED``, a JSON value or None.
SCHEMA = {
    "scenario": {
        "ticks": (_ticks, REQUIRED), "agents": (_agents, REQUIRED), "name": (_string, "scenario"),
        "seed": (_integer, 0), "percepts": (_pulses, ()), "observation": (_observation, {}),
        "params": (_table("params", "parameter"), {}),
    },
    "agents": {"id": (_agent_id, REQUIRED), "program": (_string, REQUIRED), "roles": (_strings, ())},
    "percepts": {
        "agents": (_strings, ()), "literal": (_percept_literal, REQUIRED),
        "at": (_ticks, None), "from": (_integer, None), "period": (_period, None),
    },
    "observation": {
        "public": (_strings, ()), "authority": (_string, None),
        "reactions": (_table("observation.reactions"), {}), "feedback": (_table("observation.feedback"), {}),
    },
    "observation.feedback": {
        "observers": (_strings, ()), "condition": (_array, ()),  # each a public bare name: see from_dict
        "pair": (_number_pair, (0.0, 0.0)), "targets_roles": (_strings, ()),
    },
    "observation.reactions": {"comply": (_number_pair, None), "break": (_number_pair, None)},
    # a parameter left unset keeps its EnvironmentView default
    "params": {
        "delta": (_number, None), "relevance_weight": (_number, None), "relevance_threshold": (_number, None),
        "decay_affect": (_unit_rate, None), "decay_relevance": (_rate, None),
        "deviation_threshold": (_number_pair, None),
    },
}
#: The run parameters a scenario's ``params`` may set.
PARAMS = SCHEMA["params"]


class ScenarioConfig(Record):
    __slots__ = _fields = ("name", "ticks", "seed", "agents", "pulses", "observation", "params")

    def __init__(
        self, name: str, ticks: int, seed: int, agents: list[dict], pulses: list[PerceptPulse],
        observation: ObserverPolicy, params: dict,
    ) -> None:
        self.name, self.ticks, self.seed = name, ticks, seed
        self.agents = agents  # {"id", "program" (source text), "roles"}
        self.pulses, self.observation = pulses, observation
        self.params = params  # the PARAMS set, by name

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
        scenario = _walk(raw, "", SCHEMA["scenario"])

        # the checks that span objects
        seen: set[str] = set()
        texts: dict[str, str] = {}  # each program file, read once, by its name as written
        for i, spec in enumerate(scenario["agents"]):
            if spec["id"] in seen:
                raise ScenarioError(f"scenario 'agents[{i}].id': duplicate agent id {spec['id']!r}")
            seen.add(spec["id"])
            source = spec["program"]
            if source.endswith(".nea"):
                if base is None:
                    raise ScenarioError(f"scenario 'agents[{i}].program': a program file needs a scenario directory")
                if source not in texts:
                    try:
                        texts[source] = (base / source).read_text(encoding="utf-8")
                    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, NUL in the name
                        raise ScenarioError(f"scenario 'agents[{i}].program': {exc}") from exc
                spec["program"] = texts[source]

        for i, pulse in enumerate(scenario["percepts"]):
            unknown = [a for a in pulse.agents if a not in seen]
            if unknown:
                raise ScenarioError(f"scenario 'percepts[{i}].agents': percept pulse targets unknown agents {unknown}")

        observation = scenario["observation"]
        if observation.authority is not None and observation.authority not in seen:
            raise ScenarioError(f"scenario 'observation.authority' {observation.authority!r} is not an agent")
        for obs in observation.observers:
            if obs not in seen:
                raise ScenarioError(f"scenario 'observation.feedback.observers' {obs!r} is not an agent")
        for i, text in enumerate(observation.condition):
            key = f"observation.feedback.condition[{i}]"
            try:
                lit = parse_literal_text(_string(text, key))
            except LangError as exc:
                raise ScenarioError(f"scenario '{key}' {text!r}: {exc}") from exc
            if lit.args:
                raise ScenarioError(
                    f"scenario '{key}' {text!r} must be a bare name: "
                    "the feedback wire format carries no arguments"
                )
            if lit.functor not in observation.public:
                raise ScenarioError(
                    f"scenario '{key}' {text!r} is not public (observation.public: {list(observation.public)})"
                )

        return cls(pulses=scenario.pop("percepts"), **scenario)


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


class RunResult(Record):
    __slots__ = _fields = ("trace", "metrics", "roster")

    def __init__(self, trace: list[TraceEntry], metrics: list[MetricsRow], roster: dict[str, AgentConfig]):
        self.trace, self.metrics, self.roster = trace, metrics, roster


class Society:
    def __init__(self, config: ScenarioConfig, *, seed: int | None = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.roster: dict[str, AgentConfig] = {}
        programs: dict[str, AgentProgram] = {}  # a society runs many agents from a few programs
        for spec in config.agents:
            text = spec["program"]
            if text not in programs:
                try:
                    programs[text] = parse_agent_program(text)
                except LangError as exc:
                    where = f"{exc.line}:{exc.col}: " if exc.line is not None else ""
                    raise ScenarioError(f"agent {spec['id']!r}: {where}{exc.message}") from exc
            self.roster[spec["id"]] = agent_from_program(spec["id"], programs[text], roles=spec["roles"])
        # a norm's roles spec is "ALL" or a tuple, and the roster never changes
        fraction = functools.cache(functools.partial(fraction_affected, self.roster))
        self.env = EnvironmentView(n_agents=len(self.roster), fraction=fraction, **config.params)
        self._mids = itertools.count(1)
        self._pending: dict[str, list[Message]] = {aid: [] for aid in self.roster}
        # the pulses aimed at each agent, in scenario order
        self._pulses: dict[str, list[PerceptPulse]] = {aid: [] for aid in self.roster}
        for pulse in config.pulses:
            for aid in dict.fromkeys(pulse.agents):
                self._pulses[aid].append(pulse)
        policy = config.observation
        self._condition = [parse_literal_text(text) for text in policy.condition]
        self._feedback = render_feedback([(render_literal(lit), True) for lit in self._condition], policy.pair)
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

    def _deliver_copy(self, message: Message, recipient: str) -> None:
        copy = Message(
            mid=next(self._mids),
            sender=message.sender,
            content=message.content,
            norm=message.norm,
            appraisal=message.appraisal,
            recipient=recipient,
        )
        self._pending[recipient].append(copy)

    def _route(self, outbound: list[Message]) -> None:
        """Deliver mail; announcements, the outbound mail that carries a norm
        annotation, are handled by ``_authority_react``."""
        for message in outbound:
            if message.norm is not None:
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
            feedback = Message(mid=-1, sender=observer, content=self._feedback)
            for target_id in risen:
                if target_id != observer:
                    self._deliver_copy(feedback, target_id)

    # -- one tick --------------------------------------------------------

    def _percepts_for(self, agent_id: str, t: int) -> set:
        return {pulse.literal for pulse in self._pulses[agent_id] if pulse.fires(t)}

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

        # 2. each agent runs one full tick, and its outbound mail is routed
        #    (independent: routed mail lands in _pending, delivered next tick)
        actions_before = {aid: len(agent.C.A) for aid, agent in self.roster.items()}
        trace: list[TraceItem] = []
        announcements: list[tuple[Message, str]] = []
        announced: dict[str, str] = {}  # an agent's last variant this tick
        env = self.env
        env.tick = t
        try:
            for aid, agent in self.roster.items():
                env.percepts = self._percepts_for(aid, t)
                entries, outbound = agent_tick(agent, env)
                trace.extend(entries)
                for message in outbound:
                    if message.norm is not None:  # only cycle._appraise sets it
                        variant = announced[aid] = _announced_variant(message)
                        announcements.append((message, variant))
                self._route(outbound)
        except InterpreterFault as exc:
            exc.tick = t
            raise
        except Exception as exc:  # a bug in a step: report it as a fault, not a traceback
            fault = InterpreterFault(aid, agent.s.value, f"{type(exc).__name__}: {exc}")
            fault.tick = t
            raise fault from exc
        # 3. the observation fabric reacts to what this tick produced
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
    """The variant of an announcement ``norm_result("<id>","<variant>")``."""
    return str(parse_literal_text(message.content).args[1])


# ----------------------------------------------------------------------
# writers


def write_metrics(rows: list[MetricsRow], fh: TextIOBase) -> None:
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
    probe = QuietTick(0, agent, upas_summary(0, (0.0, 0.0)), None)
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


def _write_items(
    trace: list[TraceItem], fh: TextIOBase, templates: dict, line: Callable[[TraceEntry], str], split
) -> None:
    """Write *line* of each entry; a ``QuietTick`` from its agent's
    ``_quiet_template(agent, line, split)``, built on the agent's first
    record and kept in *templates*, then its decay entry's line."""

    def lines():
        for item in trace:
            if type(item) is QuietTick:
                if item.agent not in templates:
                    templates[item.agent] = _quiet_template(item.agent, line, split)
                head, tail = templates[item.agent]
                t = str(item.tick)
                yield t.join(head) + item.upas + t.join(tail) + line(item.decay)
            else:
                yield line(item)

    fh.write("".join(lines()))


def _text_line(e: TraceEntry) -> str:
    return f"{e.tick}\t{e.agent}\t{e.step}\t{e.summary}\n"


def write_trace_text(trace: list[TraceItem], fh: TextIOBase, templates: dict) -> None:
    """Append one ``_text_line`` (the entry's fields but its payload,
    tab-separated) per entry, sixteen per ``QuietTick``.  *templates* holds
    the quiet-tick templates of one run's text trace: pass the same dict,
    empty at first, on every call for that trace, and no other writer's."""
    _write_items(trace, fh, templates, _text_line, str.partition)


def write_trace_meta(meta: dict, fh: TextIOBase) -> None:
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


def write_trace_structured(trace: list[TraceItem], fh: TextIOBase, templates: dict) -> None:
    """Append one JSON record per entry, sixteen per ``QuietTick``.
    *templates* is as for ``write_trace_text``, for one structured trace."""
    _write_items(trace, fh, templates, _structured_line, str.rpartition)
