"""AST node types for the agent-definition language.

All nodes are ``Frozen`` records (``nea.record``): immutable, so parsed
programs compare structurally and can be used as dict keys / set members by
the interpreter.  The language is a ground subset: no variables, so terms
are flat (identifier, number, quoted string, or a numeric vector).
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from ..record import Frozen

_set = object.__setattr__  # how a frozen record's __init__ writes its fields


class Sym(Frozen):
    """A bare identifier appearing as a term, e.g. the professor in role(professor)."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Sym({self.name})"


# Term positions inside a literal: identifier, number, quoted string, or a
# numeric vector like [0.5,0.5].
Term = Sym | float | str | tuple


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


class Literal(Frozen):
    """A ground literal: functor optionally applied to flat terms.

    No ``__slots__``: ``text`` caches in the instance ``__dict__``.
    """

    _fields = ("functor", "args")

    def __init__(self, functor: str, args: tuple = ()) -> None:
        _set(self, "functor", functor)
        _set(self, "args", args)

    # written out, not the generic field-wise pair: literals are compared
    # and hashed on every belief lookup
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.functor == other.functor and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.functor, self.args))

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


class TriggerEvent(Frozen):
    __slots__ = _fields = ("kind", "type", "literal")

    def __init__(self, kind: TriggerKind, type: TriggerType, literal: Literal) -> None:
        _set(self, "kind", kind)
        _set(self, "type", type)
        _set(self, "literal", literal)

    # written out like Literal's: plans are matched on their trigger
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.kind is other.kind and self.type is other.type and self.literal == other.literal
        return NotImplemented

    def __hash__(self) -> int:  # equal triggers have equal literals; Enum.__hash__ runs in Python
        return hash(self.literal)


class ContextLiteral(Frozen):
    """One conjunct of a plan context; ``negated`` is the `not` prefix."""

    __slots__ = _fields = ("literal", "negated")

    def __init__(self, literal: Literal, negated: bool = False) -> None:
        _set(self, "literal", literal)
        _set(self, "negated", negated)


class StepKind(Enum):
    ADD = "+"
    DEL = "-"
    ACT = "act"
    SEND = "send"


# Functor reserved for appraisal-carrying action steps appended to generated
# norm-plan variants; the interpreter routes it to the affect machinery
# instead of the action queue.
AFFECT_FUNCTOR = "affect"


class BodyStep(Frozen):
    """One body step; ``recipient`` and ``content`` are SEND only."""

    __slots__ = _fields = ("kind", "literal", "recipient", "content")

    def __init__(
        self, kind: StepKind, literal: Literal | None = None,
        recipient: Term | None = None, content: Literal | None = None,
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "literal", literal)
        _set(self, "recipient", recipient)
        _set(self, "content", content)

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


class PlanDef(Frozen):
    """A plan: optional label, trigger, context conjunction, body sequence.

    ``normative`` records the np__ trigger prefix (stripped from the trigger
    literal itself so triggers match base-plan events).  ``norm_id`` and
    ``variant`` ("comply" / "break") are attribution added at runtime when a
    plan pair is generated from a norm; parsed source plans leave them None.
    """

    __slots__ = _fields = ("trigger", "context", "body", "label", "normative", "norm_id", "variant")

    def __init__(
        self, trigger: TriggerEvent, context: tuple[ContextLiteral, ...] = (), body: tuple[BodyStep, ...] = (),
        label: Literal | None = None, normative: bool = False, norm_id: str | None = None,
        variant: str | None = None,
    ) -> None:
        _set(self, "trigger", trigger)
        _set(self, "context", context)
        _set(self, "body", body)
        _set(self, "label", label)
        _set(self, "normative", normative)
        _set(self, "norm_id", norm_id)
        _set(self, "variant", variant)


class NormDecl(Frozen):
    """A norm literal: deontic operator ("obligation" | "prohibition"),
    normative plan, limit cycle (0 = unbounded), relevance, affected roles
    ("ALL" or a tuple of role names), and the pre-appraisal pleasure/arousal
    pair."""

    __slots__ = _fields = ("deontic", "plan", "limit", "relevance", "roles", "pre_appraisal")

    def __init__(
        self, deontic: str, plan: PlanDef, limit: int, relevance: float,
        roles: str | tuple[str, ...], pre_appraisal: tuple[float, float],
    ) -> None:
        _set(self, "deontic", deontic)
        _set(self, "plan", plan)
        _set(self, "limit", limit)
        _set(self, "relevance", relevance)
        _set(self, "roles", roles)
        _set(self, "pre_appraisal", pre_appraisal)


class CopingStrategy(Frozen):
    """Fires when the affective state falls in a closed rectangle of
    pleasure x arousal space; queues the listed actions."""

    __slots__ = _fields = ("pleasure", "arousal", "actions")

    def __init__(
        self, pleasure: tuple[float, float], arousal: tuple[float, float], actions: tuple[Literal, ...] = ()
    ) -> None:
        _set(self, "pleasure", pleasure)
        _set(self, "arousal", arousal)
        _set(self, "actions", actions)

    def matches(self, sigma: tuple[float, float]) -> bool:
        p, a = sigma
        return self.pleasure[0] <= p <= self.pleasure[1] and self.arousal[0] <= a <= self.arousal[1]


class PersonalityDecl(Frozen):
    __slots__ = _fields = ("traits", "rationality", "coping", "rebelliousness")

    def __init__(
        self, traits: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0), rationality: float = 0.0,
        coping: tuple[CopingStrategy, ...] = (), rebelliousness: float = 0.0,
    ) -> None:
        _set(self, "traits", traits)
        _set(self, "rationality", rationality)
        _set(self, "coping", coping)
        _set(self, "rebelliousness", rebelliousness)


class AgentProgram(Frozen):
    __slots__ = _fields = ("beliefs", "goals", "plans", "concerns", "personality", "roles", "norms")

    def __init__(
        self, beliefs: tuple[Literal, ...] = (), goals: tuple[Literal, ...] = (),
        plans: tuple[PlanDef, ...] = (), concerns: tuple[Literal, ...] = (),
        personality: PersonalityDecl | None = None, roles: tuple[str, ...] = (), norms: tuple[NormDecl, ...] = (),
    ) -> None:
        _set(self, "beliefs", beliefs)
        _set(self, "goals", goals)
        _set(self, "plans", plans)
        _set(self, "concerns", concerns)
        _set(self, "personality", personality)
        _set(self, "roles", roles)
        _set(self, "norms", norms)
