"""AST node types for the agent-definition language.

All nodes are frozen dataclasses so parsed programs compare structurally and
can be used as dict keys / set members by the interpreter.  The language is a
ground subset: no variables, so terms are flat (identifier, number, quoted
string, or a numeric vector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Union


@dataclass(frozen=True)
class Sym:
    """A bare identifier appearing as a term, e.g. the professor in role(professor)."""

    name: str

    def __repr__(self) -> str:
        return f"Sym({self.name})"


# Term positions inside a literal: identifier, number, quoted string, or a
# numeric vector like [0.5,0.5].
Term = Union[Sym, float, str, tuple]


# Canonical term text.  It lives beside the nodes so that ``Literal.text``
# can memoize it; ``render`` builds the other forms from these helpers.


def _num(value: float) -> str:
    return repr(float(value))


def _quoted(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _term(value) -> str:
    if isinstance(value, Sym):
        return value.name
    if isinstance(value, float):
        return _num(value)
    if isinstance(value, str):
        return _quoted(value)
    if isinstance(value, tuple):
        return "[" + ",".join(_term(v) for v in value) + "]"
    raise TypeError(f"cannot render term {value!r}")


@dataclass(frozen=True)
class Literal:
    """A ground literal: functor optionally applied to flat terms."""

    functor: str
    args: tuple = ()

    @cached_property
    def text(self) -> str:
        """Canonical text (``render_literal``), rendered once per instance.

        The cache lives on the instance and is never shared between equal
        literals: ``Literal("x", (0.0,)) == Literal("x", (-0.0,))``, yet
        they render as ``x(0.0)`` and ``x(-0.0)``.
        """
        if not self.args:
            return self.functor
        return self.functor + "(" + ", ".join(_term(a) for a in self.args) + ")"

    def __repr__(self) -> str:
        if not self.args:
            return f"Literal({self.functor})"
        return f"Literal({self.functor}{self.args!r})"


class TriggerKind(Enum):
    ADD = "+"
    DEL = "-"


class TriggerType(Enum):
    BELIEF = "belief"
    GOAL = "goal"


@dataclass(frozen=True)
class TriggerEvent:
    kind: TriggerKind
    type: TriggerType
    literal: Literal


@dataclass(frozen=True)
class ContextLiteral:
    """One conjunct of a plan context; ``negated`` is the `not` prefix."""

    literal: Literal
    negated: bool = False


class StepKind(Enum):
    ADD = "+"
    DEL = "-"
    ACT = "act"
    SEND = "send"


# Functor reserved for appraisal-carrying action steps appended to generated
# norm-plan variants; the interpreter routes it to the affect machinery
# instead of the action queue.
AFFECT_FUNCTOR = "affect"


@dataclass(frozen=True)
class BodyStep:
    kind: StepKind
    literal: Literal | None = None
    # SEND only:
    recipient: Term | None = None
    content: Literal | None = None

    def is_affect_update(self) -> bool:
        return (
            self.kind is StepKind.ACT
            and self.literal is not None
            and self.literal.functor == AFFECT_FUNCTOR
            and len(self.literal.args) == 2
        )

    def affect_pair(self) -> tuple[float, float]:
        p, a = self.literal.args
        return (float(p), float(a))


@dataclass(frozen=True)
class PlanDef:
    """A plan: optional label, trigger, context conjunction, body sequence.

    ``normative`` records the np__ trigger prefix (stripped from the trigger
    literal itself so triggers match base-plan events).  ``norm_id`` and
    ``variant`` ("comply" / "break") are attribution added at runtime when a
    plan pair is generated from a norm; parsed source plans leave them None.
    """

    trigger: TriggerEvent
    context: tuple[ContextLiteral, ...] = ()
    body: tuple[BodyStep, ...] = ()
    label: Literal | None = None
    normative: bool = False
    norm_id: str | None = None
    variant: str | None = None


@dataclass(frozen=True)
class NormDecl:
    """A norm literal: deontic operator, normative plan, limit cycle,
    relevance, affected roles ("ALL" or a tuple of role names), and the
    pre-appraisal pleasure/arousal pair."""

    deontic: str  # "obligation" | "prohibition"
    plan: PlanDef
    limit: int  # 0 = unbounded
    relevance: float
    roles: str | tuple[str, ...]  # "ALL" or explicit role names
    pre_appraisal: tuple[float, float]


@dataclass(frozen=True)
class CopingStrategy:
    """Fires when the affective state falls in a closed rectangle of
    pleasure x arousal space; queues the listed actions."""

    pleasure: tuple[float, float]
    arousal: tuple[float, float]
    actions: tuple[Literal, ...] = ()

    def matches(self, sigma: tuple[float, float]) -> bool:
        p, a = sigma
        return self.pleasure[0] <= p <= self.pleasure[1] and self.arousal[0] <= a <= self.arousal[1]


@dataclass(frozen=True)
class PersonalityDecl:
    traits: tuple[float, float, float, float, float] = (0.0, 0.0, 0.0, 0.0, 0.0)
    rationality: float = 0.0
    coping: tuple[CopingStrategy, ...] = ()
    rebelliousness: float = 0.0


@dataclass(frozen=True)
class AgentProgram:
    beliefs: tuple[Literal, ...] = ()
    goals: tuple[Literal, ...] = ()
    plans: tuple[PlanDef, ...] = ()
    concerns: tuple[Literal, ...] = ()
    personality: PersonalityDecl | None = None
    roles: tuple[str, ...] = ()
    norms: tuple[NormDecl, ...] = field(default=())
