"""Core state types for normative-emotional agents.

An agent configuration is the tuple <ag, C, M, T, Mem, Ta, s, ast>:

* ag — beliefs bs (each believed literal mapped to the non-empty set of
  sources that believe it), plan library ps, concerns cc, personality P,
  normative beliefs NB;
* C — circumstance: intentions I, events E, executed actions A;
* M — mailboxes: In, Out;
* T — temporary info of the current cycle: relevant plans R, applicable
  plans Ap, selected intention iota, selected event epsilon, selected plan rho;
* Mem — affectively relevant event memory;
* Ta — affective temporaries: belief-update buffer Ub, appraisal variables Av,
  selected coping strategies Cs, affective state sigma;
* s — current normative-cycle step label; ast — current affective-cycle step.

Everything here is plain data; the step functions live in norms/affect/cycle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from .lang import (
    AgentProgram,
    Literal,
    NormDecl,
    PersonalityDecl,
    PlanDef,
    TriggerEvent,
    TriggerKind,
    TriggerType,
    render_literal,
    render_norm,
    render_plan,
    render_trigger,
)


class StepLabel(Enum):
    Perceive = "Perceive"
    ProcMsg = "ProcMsg"
    SelEv = "SelEv"
    RelPl = "RelPl"
    ApplPl = "ApplPl"
    SelAppl = "SelAppl"
    AddIM = "AddIM"
    SelInt = "SelInt"
    ExecInt = "ExecInt"
    ClrInt = "ClrInt"
    AffModB = "AffModB"


class AffectiveStepLabel(Enum):
    Appr = "Appr"
    UpAs = "UpAs"
    SelCs = "SelCs"
    Cope = "Cope"


#: Step label of the temporal-dynamics cycle (affect and norm-relevance decay).
DECAY_STEP = "AsNrDecay"

# Belief sources
SOURCE_SELF = "self"
SOURCE_PERCEPT = "percept"

AffectPair = tuple[float, float]


def clamp_pair(pair: AffectPair) -> AffectPair:
    return (
        min(1.0, max(-1.0, pair[0])),
        min(1.0, max(-1.0, pair[1])),
    )


def scalar_mood(sigma: AffectPair) -> float:
    """Collapse (pleasure, arousal) to the scalar mood used by the utilities."""
    return (sigma[0] + sigma[1]) / 2.0


@dataclass
class NormativeBelief:
    """A norm adopted by the agent: <do, p, l, rel, roles, pa> plus the
    generated id (hash of the canonical norm text) and bookkeeping."""

    id: str
    deontic: str
    plan: PlanDef
    limit: int
    relevance: float
    roles: str | tuple[str, ...]
    pre_appraisal: AffectPair

    @classmethod
    def from_decl(cls, decl: NormDecl) -> "NormativeBelief":
        return cls(
            id=norm_id(decl),
            deontic=decl.deontic,
            plan=decl.plan,
            limit=decl.limit,
            relevance=decl.relevance,
            roles=decl.roles,
            pre_appraisal=decl.pre_appraisal,
        )


def norm_id(decl: NormDecl) -> str:
    """Stable id for a norm: hash of its canonical rendering."""
    text = render_norm(decl)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


@dataclass
class IntendedMeans:
    plan: PlanDef
    remaining: list  # list[BodyStep] still to execute


@dataclass
class Intention:
    iid: int
    stack: list  # list[IntendedMeans], top is last

    def top(self) -> IntendedMeans | None:
        return self.stack[-1] if self.stack else None


@dataclass
class Event:
    trigger: TriggerEvent
    intention: Intention | None = None  # None = external (top)


@dataclass
class Circumstance:
    I: list = field(default_factory=list)  # noqa: E741 - the canonical field name
    E: list = field(default_factory=list)
    A: list = field(default_factory=list)


class Ilf(Enum):
    Tell = "Tell"
    Untell = "Untell"


@dataclass
class Message:
    mid: int
    sender: str
    ilf: Ilf
    content: str
    norm: str | None = None  # norm-annotation: id of the referenced norm
    appraisal: AffectPair | None = None
    recipient: str = ""  # routing only; "ALL" or agent id or role name


@dataclass
class Mailboxes:
    In: list = field(default_factory=list)
    Out: list = field(default_factory=list)


@dataclass
class TemporaryInfo:
    R: list = field(default_factory=list)
    Ap: list = field(default_factory=list)
    iota: Intention | None = None
    epsilon: Event | None = None
    rho: PlanDef | None = None

    def reset(self) -> None:
        self.R = []
        self.Ap = []
        self.iota = None
        self.epsilon = None
        self.rho = None


class UbKind(Enum):
    ADD = "add"
    DEL = "del"
    APPRAISE = "appraise"


@dataclass
class UbEntry:
    """One pending belief-base / appraisal update, applied at AffModB."""

    kind: UbKind
    literal: Literal | None = None
    source: str | None = SOURCE_SELF  # None on a deletion: every source's copy
    pair: AffectPair | None = None
    norm_id: str | None = None
    variant: str | None = None


@dataclass
class AppraisalVariables:
    desirability: float = 0.0
    likelihood: float = 1.0
    expectedness: float = 0.0
    controllability: float = 1.0
    causal_attribution: int = 0  # 1 = self-caused


@dataclass
class AffectiveTemp:
    Ub: list = field(default_factory=list)  # list[UbEntry]
    Av: AppraisalVariables | None = None
    Cs: list = field(default_factory=list)  # selected coping strategies
    sigma: AffectPair = (0.0, 0.0)


class MemKind(Enum):
    NORM_FEEDBACK = "norm-feedback-received"
    OWN_COMPLIANCE = "own-compliance"
    OWN_VIOLATION = "own-violation"
    SELF_APPRAISAL = "self-appraisal"  # hand-written affect step, no norm attribution
    SOCIAL_FEEDBACK = "social-feedback"


@dataclass
class MemoryEvent:
    tick: int
    kind: MemKind
    pair: AffectPair
    norm_id: str | None = None
    source: str = SOURCE_SELF
    divisor: int = 1  # society-sourced pairs divide by the agent count
    applied: bool = False  # True once the pair has reached sigma
    appraised: bool = False  # True once the appraisal step has seen the entry


@dataclass
class FeedbackRecord:
    """Accumulated social feedback for one belief-condition set."""

    condition: frozenset  # frozenset[tuple[str, bool]]: (literal text, present?)
    accumulated: AffectPair = (0.0, 0.0)
    count: int = 0
    # what the last social-norm detection that flagged nothing read; None
    # until then (see cycle.run_affective_cycle)
    settled: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class AgentConfig:
    """Full runtime configuration of one agent."""

    id: str
    bs: dict = field(default_factory=dict)  # Literal -> set of sources
    ps: list = field(default_factory=list)  # list[PlanDef]
    cc: tuple = ()  # concerns
    P: PersonalityDecl = field(default_factory=PersonalityDecl)
    NB: list = field(default_factory=list)  # list[NormativeBelief]
    C: Circumstance = field(default_factory=Circumstance)
    M: Mailboxes = field(default_factory=Mailboxes)
    T: TemporaryInfo = field(default_factory=TemporaryInfo)
    Mem: list = field(default_factory=list)  # list[MemoryEvent]
    Ta: AffectiveTemp = field(default_factory=AffectiveTemp)
    s: StepLabel = StepLabel.Perceive
    ast: AffectiveStepLabel = AffectiveStepLabel.Appr
    roles: tuple = ()
    cycle: int = 0  # completed reasoning cycles (ticks)
    relevance_threshold: float = 25.0
    feedback: dict = field(default_factory=dict)  # condition -> FeedbackRecord
    _next_iid: int = 0
    # index of the first Mem entry the affective pass has not yet seen
    mem_cursor: int = field(default=0, repr=False, compare=False)
    # bumped by each write to ps: norm adoption and plan revision
    plan_version: int = field(default=0, repr=False, compare=False)
    # sorted texts of the held literals, and the same as a set; None once
    # the held literals change, rebuilt on the next read
    _texts: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _text_set: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)

    # -- belief-base helpers -------------------------------------------
    # add_belief / remove_belief are the only writers of bs, so no literal
    # maps to an empty set of sources

    def holds(self, literal: Literal) -> bool:
        return literal in self.bs

    def belief_texts(self) -> tuple:
        """Sorted texts of the believed literals."""
        if self._texts is None:
            self._texts = tuple(sorted(render_literal(lit) for lit in self.bs))
            self._text_set = frozenset(self._texts)
        return self._texts

    def belief_text_set(self) -> frozenset:
        """``belief_texts`` as a set."""
        if self._texts is None:
            self.belief_texts()
        return self._text_set

    def add_belief(self, literal: Literal, source: str) -> bool:
        """Add a (literal, source) pair; True if the base changed."""
        sources = self.bs.get(literal)
        if sources is None:
            self.bs[literal] = {source}
            self._texts = None
            return True
        if source in sources:
            return False
        sources.add(source)
        return True

    def remove_belief(self, literal: Literal, source: str | None = None) -> bool:
        """Remove matching beliefs; any source when *source* is None."""
        sources = self.bs.get(literal)
        if sources is None or (source is not None and source not in sources):
            return False
        if source is not None and len(sources) > 1:
            sources.remove(source)
        else:
            del self.bs[literal]
            self._texts = None
        return True

    def percept_literals(self) -> set:
        return {lit for lit, sources in self.bs.items() if SOURCE_PERCEPT in sources}

    def new_intention(self, means: IntendedMeans) -> Intention:
        intent = Intention(iid=self._next_iid, stack=[means])
        self._next_iid += 1
        return intent

    def find_norm(self, nid: str) -> NormativeBelief | None:
        for nb in self.NB:
            if nb.id == nid:
                return nb
        return None


def agent_from_program(
    agent_id: str,
    program: AgentProgram,
    *,
    roles: tuple[str, ...] = (),
    relevance_threshold: float = 25.0,
) -> AgentConfig:
    """Construct the initial configuration: s=Perceive, ast=Appr, sigma=(0,0),
    empty circumstance and memory; beliefs are self-sourced."""
    agent = AgentConfig(
        id=agent_id,
        bs={lit: {SOURCE_SELF} for lit in program.beliefs},
        ps=list(program.plans),
        cc=program.concerns,
        P=program.personality or PersonalityDecl(),
        roles=tuple(dict.fromkeys((*program.roles, *roles))),
        relevance_threshold=relevance_threshold,
    )
    agent.NB = [NormativeBelief.from_decl(d) for d in program.norms]
    for goal in program.goals:
        agent.C.E.append(Event(TriggerEvent(TriggerKind.ADD, TriggerType.GOAL, goal)))
    return agent


# ----------------------------------------------------------------------
# snapshot serialization


def _nb_json(nb: NormativeBelief) -> dict:
    return {
        "id": nb.id,
        "do": nb.deontic,
        "p": render_plan(nb.plan, norm_form=True),
        "l": nb.limit,
        "rel": nb.relevance,
        "roles": list(nb.roles) if isinstance(nb.roles, tuple) else nb.roles,
        "pa": list(nb.pre_appraisal),
    }


def _intention_json(i: Intention) -> dict:
    return {
        "iid": i.iid,
        "stack": [
            {"plan": render_plan(m.plan), "remaining": len(m.remaining)} for m in i.stack
        ],
    }


def _event_json(e: Event) -> dict:
    return {
        "trigger": render_trigger(e.trigger),
        "intention": None if e.intention is None else e.intention.iid,
    }


def _message_json(m: Message) -> dict:
    return {
        "mid": m.mid,
        "sender": m.sender,
        "ilf": m.ilf.value,
        "content": m.content,
        "norm": m.norm,
        "appraisal": None if m.appraisal is None else list(m.appraisal),
    }


def _mem_json(ev: MemoryEvent) -> dict:
    return {
        "tick": ev.tick,
        "kind": ev.kind.value,
        "pair": list(ev.pair),
        "norm": ev.norm_id,
        "source": ev.source,
    }


def snapshot(agent: AgentConfig) -> dict:
    """Structured snapshot of the full configuration tuple for trace dumps."""
    pers = agent.P
    return {
        "id": agent.id,
        "ag": {
            "bs": [
                {"literal": text, "source": source}
                for text, source in sorted(
                    (render_literal(lit), source) for lit, sources in agent.bs.items() for source in sources
                )
            ],
            "ps": [render_plan(p) for p in agent.ps],
            "cc": [render_literal(c) for c in agent.cc],
            "P": {
                "tr": list(pers.traits),
                "rl": pers.rationality,
                "cs": len(pers.coping),
                "reb": pers.rebelliousness,
            },
            "NB": [_nb_json(nb) for nb in agent.NB],
        },
        "C": {
            "I": [_intention_json(i) for i in agent.C.I],
            "E": [_event_json(e) for e in agent.C.E],
            "A": [render_literal(a) for a in agent.C.A],
        },
        "M": {
            "In": [_message_json(m) for m in agent.M.In],
            "Out": [_message_json(m) for m in agent.M.Out],
        },
        "T": {
            "R": [render_plan(p) for p in agent.T.R],
            "Ap": [render_plan(p) for p in agent.T.Ap],
            "ι": None if agent.T.iota is None else agent.T.iota.iid,
            "ε": None if agent.T.epsilon is None else _event_json(agent.T.epsilon),
            "ρ": None if agent.T.rho is None else render_plan(agent.T.rho),
        },
        "Mem": [_mem_json(ev) for ev in agent.Mem],
        "Ta": {
            "Ub": len(agent.Ta.Ub),
            "Av": None
            if agent.Ta.Av is None
            else {
                "desirability": agent.Ta.Av.desirability,
                "likelihood": agent.Ta.Av.likelihood,
                "expectedness": agent.Ta.Av.expectedness,
                "controllability": agent.Ta.Av.controllability,
                "causal_attribution": agent.Ta.Av.causal_attribution,
            },
            "Cs": len(agent.Ta.Cs),
            "σ": list(agent.Ta.sigma),
        },
        "s": agent.s.value,
        "ast": agent.ast.value,
        "cycle": agent.cycle,
    }
