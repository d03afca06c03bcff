"""Core state types for normative-emotional agents.

An agent configuration is the tuple <ag, C, M, T, Mem, Ta, s, ast>:

* ag — beliefs bs (each believed literal mapped to the non-empty set of
  sources that believe it), plan library ps, concerns cc, personality P,
  normative beliefs NB;
* C — circumstance: intentions I (each one plan instance and the body
  steps it has still to run), events E, executed actions A;
* M — mailboxes: In, Out;
* T — temporary info of the current cycle: relevant plans R, applicable
  plans Ap, selected intention iota, selected event epsilon, selected plan rho;
* Mem — affectively relevant event memory;
* Ta — affective temporaries: belief-update buffer Ub, appraisal variables Av,
  selected coping strategies Cs, affective state sigma;
* s — current normative-cycle step label; ast — current affective-cycle step.

Everything here is plain data; the step functions and agent construction
live in norms/affect/cycle.
"""

from __future__ import annotations

from enum import Enum

from .lang import (
    Literal,
    NormDecl,
    PersonalityDecl,
    PlanDef,
    render_literal,
    render_norm,
    render_plan,
    render_trigger,
)
from .record import Record

try:  # the built-in module: hashlib would load OpenSSL's _hashlib at start-up
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1


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


class NormativeBelief(Record):
    """A norm adopted by the agent: <do, p, l, rel, roles, pa> plus the
    generated id (hash of the canonical norm text) and bookkeeping."""

    __slots__ = _fields = ("id", "deontic", "plan", "limit", "relevance", "roles", "pre_appraisal")

    def __init__(
        self, id: str, deontic: str, plan: PlanDef, limit: int, relevance: float,
        roles: str | tuple[str, ...], pre_appraisal: AffectPair,
    ) -> None:
        self.id, self.deontic, self.plan, self.limit = id, deontic, plan, limit
        self.relevance, self.roles, self.pre_appraisal = relevance, roles, pre_appraisal

    @classmethod
    def from_decl(cls, decl: NormDecl, nid: str) -> "NormativeBelief":
        """The agent's own belief in *decl*, under its id *nid* (``norm_id``)."""
        return cls(nid, decl.deontic, decl.plan, decl.limit, decl.relevance, decl.roles, decl.pre_appraisal)


def norm_id(decl: NormDecl) -> str:
    """Stable id for a norm: hash of its canonical rendering."""
    text = render_norm(decl)
    return sha1(text.encode("utf-8")).hexdigest()[:12]


class Intention(Record):
    """One plan instance: a body posts no subgoal, so an intention never
    holds more than the plan it was started with."""

    __slots__ = _fields = ("iid", "plan", "remaining")

    def __init__(self, iid: int, plan: PlanDef, remaining: list) -> None:
        self.iid, self.plan, self.remaining = iid, plan, remaining  # remaining: list[BodyStep] still to execute


class Circumstance(Record):
    __slots__ = _fields = ("I", "E", "A")

    def __init__(self) -> None:
        # E holds TriggerEvents: a body posts no subgoal, so every event is external
        self.I, self.E, self.A = [], [], []  # noqa: E741 - the canonical field name


class Message(Record):
    """A told *content*: every message is a Tell.  *norm* is the
    norm-annotation (id of the referenced norm): outbound, only a compliance
    or violation announcement carries one, and inbound only the authority's
    reply to it.  *recipient* is for routing only: "ALL", an agent id or, on
    an announcement, the announcement channel (``cycle.OBSERVER_CHANNEL``);
    routing faults on anything else."""

    __slots__ = _fields = ("mid", "sender", "content", "norm", "appraisal", "recipient")

    def __init__(
        self, mid: int, sender: str, content: str, norm: str | None = None,
        appraisal: AffectPair | None = None, recipient: str = "",
    ) -> None:
        self.mid, self.sender, self.content = mid, sender, content
        self.norm, self.appraisal, self.recipient = norm, appraisal, recipient


class Mailboxes(Record):
    __slots__ = _fields = ("In", "Out")

    def __init__(self) -> None:
        self.In, self.Out = [], []


class TemporaryInfo(Record):
    __slots__ = _fields = ("R", "Ap", "iota", "epsilon", "rho")

    def __init__(self) -> None:
        self.reset()

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


class UbEntry(Record):
    """One pending belief-base / appraisal update, applied at AffModB.
    *source* None on a deletion removes every source's copy."""

    __slots__ = _fields = ("kind", "literal", "source", "pair", "norm_id", "variant")

    def __init__(
        self, kind: UbKind, literal: Literal | None = None, source: str | None = SOURCE_SELF,
        pair: AffectPair | None = None, norm_id: str | None = None, variant: str | None = None,
    ) -> None:
        self.kind, self.literal, self.source = kind, literal, source
        self.pair, self.norm_id, self.variant = pair, norm_id, variant


class AppraisalVariables(Record):
    __slots__ = _fields = (
        "desirability", "likelihood", "expectedness", "controllability", "causal_attribution"
    )

    def __init__(
        self, desirability: float = 0.0, likelihood: float = 1.0, expectedness: float = 0.0,
        controllability: float = 1.0, causal_attribution: int = 0,
    ) -> None:
        self.desirability, self.likelihood, self.expectedness = desirability, likelihood, expectedness
        self.controllability = controllability
        self.causal_attribution = causal_attribution  # 1 = self-caused


class AffectiveTemp(Record):
    __slots__ = _fields = ("Ub", "Av", "Cs", "sigma")

    def __init__(self) -> None:
        self.Ub: list = []  # list[UbEntry]
        self.Av: AppraisalVariables | None = None
        self.Cs: list = []  # selected coping strategies
        self.sigma: AffectPair = (0.0, 0.0)


class MemKind(Enum):
    NORM_FEEDBACK = "norm-feedback-received"
    OWN_COMPLIANCE = "own-compliance"
    OWN_VIOLATION = "own-violation"
    SELF_APPRAISAL = "self-appraisal"  # hand-written affect step, no norm attribution
    SOCIAL_FEEDBACK = "social-feedback"


class MemoryEvent(Record):
    """*divisor*: society-sourced pairs divide by the agent count; *applied*:
    the pair has reached sigma.  The appraisal step has seen an entry when
    its index lies below ``AgentConfig.mem_cursor``."""

    __slots__ = _fields = ("tick", "kind", "pair", "norm_id", "source", "divisor", "applied")

    def __init__(
        self, tick: int, kind: MemKind, pair: AffectPair, norm_id: str | None = None, source: str = SOURCE_SELF,
        divisor: int = 1, applied: bool = False,
    ) -> None:
        self.tick, self.kind, self.pair, self.norm_id, self.source = tick, kind, pair, norm_id, source
        self.divisor, self.applied = divisor, applied


class FeedbackRecord(Record):
    """Accumulated social feedback for one belief-condition set."""

    _fields = ("condition", "accumulated", "count")  # compared and shown
    __slots__ = _fields + ("settled", "text")

    def __init__(
        self, condition: frozenset, accumulated: AffectPair = (0.0, 0.0), count: int = 0,
        settled: tuple | None = None,
    ) -> None:
        self.condition = condition  # frozenset[tuple[str, bool]]: (literal text, present?)
        self.accumulated, self.count = accumulated, count
        # the record's key in the decay payload: its condition literals,
        # signed and sorted; the condition never changes
        self.text = "|".join(sorted(("+" if present else "-") + text for text, present in condition))
        # what the last social-norm detection that flagged nothing read; None
        # until then (see cycle.run_affective_cycle)
        self.settled = settled


class AgentConfig(Record):
    """Full runtime configuration of one agent."""

    _fields = (  # compared and shown
        "id", "bs", "ps", "cc", "P", "NB", "C", "M", "T", "Mem", "Ta",
        "s", "ast", "roles", "cycle", "feedback", "_next_iid",
    )
    __slots__ = _fields + ("mem_cursor", "plan_version", "_texts", "_text_set")

    def __init__(
        self, id: str, bs: dict | None = None, ps: list | None = None, cc: tuple = (),
        P: PersonalityDecl | None = None, roles: tuple = (),
    ) -> None:
        """The declared parts; the runtime state starts empty (s=Perceive,
        ast=Appr, sigma=(0,0))."""
        self.id, self.cc, self.roles = id, cc, roles
        self.bs = {} if bs is None else bs  # Literal -> set of sources
        self.ps = [] if ps is None else ps  # list[PlanDef]
        self.P = PersonalityDecl() if P is None else P
        self.NB: list[NormativeBelief] = []
        self.C, self.M, self.T, self.Ta = Circumstance(), Mailboxes(), TemporaryInfo(), AffectiveTemp()
        self.Mem: list[MemoryEvent] = []
        self.s, self.ast = StepLabel.Perceive, AffectiveStepLabel.Appr
        self.cycle = 0  # completed reasoning cycles (ticks)
        self.feedback: dict = {}  # condition -> FeedbackRecord
        self._next_iid = 0
        # index of the first Mem entry the affective pass has not yet seen
        self.mem_cursor = 0
        # bumped by each write to ps: norm adoption and plan revision
        self.plan_version = 0
        # sorted texts of the held literals, and the same as a set; None once
        # the held literals change, rebuilt on the next read
        self._texts: tuple | None = None
        self._text_set: frozenset = frozenset()

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

    def new_intention(self, plan: PlanDef) -> Intention:
        intent = Intention(self._next_iid, plan, list(plan.body))
        self._next_iid += 1
        return intent

    def find_norm(self, nid: str) -> NormativeBelief | None:
        for nb in self.NB:
            if nb.id == nid:
                return nb
        return None


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
    return {"iid": i.iid, "plan": render_plan(i.plan), "remaining": len(i.remaining)}


def _message_json(m: Message) -> dict:
    return {
        "mid": m.mid,
        "sender": m.sender,
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
    """Structured snapshot of the full configuration tuple for trace dumps;
    each ``C.I`` entry is ``{"iid", "plan", "remaining"}``, the plan
    rendered and the count of its body steps still to run."""
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
            "E": [render_trigger(e) for e in agent.C.E],
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
            "ε": None if agent.T.epsilon is None else render_trigger(agent.T.epsilon),
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
