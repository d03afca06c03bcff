"""Canonical text rendering for parsed agent programs.

``render(parse(text))`` is the canonical form of *text*: parsing the rendered
text yields a structurally equal program, and rendering is idempotent
(render . parse . render == render).  Numbers are emitted with ``repr`` so
every float round-trips exactly.
"""

from __future__ import annotations

from .ast import (
    AgentProgram,
    BodyStep,
    ContextLiteral,
    CopingStrategy,
    Literal,
    NormDecl,
    PersonalityDecl,
    PlanDef,
    StepKind,
    Sym,
    TriggerEvent,
    TriggerKind,
    TriggerType,
    _num,
    _quoted,
)
from .parser import NP_MARKER


def render_literal(lit: Literal) -> str:
    """Canonical text of *lit*; memoized on the instance (``Literal.text``)."""
    return lit.text


def render_trigger(trigger: TriggerEvent) -> str:
    """A triggering event as the trace prints it: ``+lit``, ``-lit``, ``+!goal``."""
    bang = "!" if trigger.type is TriggerType.GOAL else ""
    return trigger.kind.value + bang + render_literal(trigger.literal)


def _render_context(context: tuple[ContextLiteral, ...]) -> str:
    parts = []
    for cl in context:
        text = render_literal(cl.literal)
        parts.append(f"not {text}" if cl.negated else text)
    return " & ".join(parts)


def _render_step(step: BodyStep) -> str:
    if step.kind is StepKind.ADD:
        return "+" + render_literal(step.literal)
    if step.kind is StepKind.DEL:
        return "-" + render_literal(step.literal)
    if step.kind is StepKind.ACT:
        return render_literal(step.literal)
    recipient = step.recipient.name if isinstance(step.recipient, Sym) else _quoted(step.recipient)
    return f".sendMsg({recipient}, {render_literal(step.content)})"


def render_plan(plan: PlanDef, *, norm_form: bool = False) -> str:
    """Render a plan; ``norm_form`` emits the np__-marked trigger used inside
    norm(...) strings (sign omitted for belief additions, as printed)."""
    head = ""
    if plan.label is not None:
        head += "@" + render_literal(plan.label) + " "
    bang = "!" if plan.trigger.type is TriggerType.GOAL else ""
    name = render_literal(plan.trigger.literal)
    if norm_form:
        sign = "-" if plan.trigger.kind is TriggerKind.DEL else ""
        head += NP_MARKER + sign + bang + name
    else:
        sign = plan.trigger.kind.value
        prefix = NP_MARKER if plan.normative else ""
        head += sign + bang + prefix + name
    out = head
    if plan.context:
        out += ":" + _render_context(plan.context)
    if plan.body:
        out += " <- " + "; ".join(_render_step(s) for s in plan.body)
    return out + "."


def render_feedback(condition, pair: tuple[float, float]) -> str:
    """Wire form of a feedback message: ``(+lit;-lit),[p,a]``.

    *condition* is an iterable of (literal text, present) pairs, emitted in
    the given order; ``parse_feedback`` is its inverse.
    """
    lits = ";".join(("+" if present else "-") + text for text, present in condition)
    return f"({lits}),[{pair[0]!r},{pair[1]!r}]"


def render_norm(decl: NormDecl) -> str:
    roles = _quoted(decl.roles) if isinstance(decl.roles, str) else (
        "[" + ",".join(_quoted(r) for r in decl.roles) + "]"
    )
    pa = "[" + ",".join(_num(v) for v in decl.pre_appraisal) + "]"
    plan_text = render_plan(decl.plan, norm_form=True)
    return (
        f"norm({_quoted(decl.deontic)}, {_quoted(plan_text)}, "
        f"{decl.limit}, {_num(decl.relevance)}, {roles}, {pa})"
    )


def _render_coping(strategy: CopingStrategy) -> str:
    p = "[" + ",".join(_num(v) for v in strategy.pleasure) + "]"
    a = "[" + ",".join(_num(v) for v in strategy.arousal) + "]"
    acts = ", ".join(render_literal(x) for x in strategy.actions)
    return f"cope({p},{a},[{acts}])"


def _render_personality(p: PersonalityDecl) -> str:
    traits = "[" + ",".join(_num(v) for v in p.traits) + "]"
    copes = "[" + ", ".join(_render_coping(c) for c in p.coping) + "]"
    return (
        "personality__: { "
        + ", ".join([traits, _num(p.rationality), copes, _num(p.rebelliousness)])
        + " }."
    )


def render(program: AgentProgram) -> str:
    """Render a full program in canonical section order."""
    sections: list[str] = []

    if program.beliefs:
        sections.append("\n".join(render_literal(b) + "." for b in program.beliefs))
    if program.goals:
        sections.append("\n".join("!" + render_literal(g) + "." for g in program.goals))
    if program.plans:
        sections.append("\n".join(render_plan(p) for p in program.plans))
    if program.concerns:
        sections.append("concerns__: { " + ", ".join(render_literal(c) for c in program.concerns) + " }.")
    if program.personality is not None:
        sections.append(_render_personality(program.personality))
    if program.roles:
        sections.append("roles__: { " + ", ".join(_quoted(r) for r in program.roles) + " }.")
    if program.norms:
        entries = " ".join(render_norm(n) + "." for n in program.norms)
        sections.append("norms__: { " + entries + " }.")

    return "\n\n".join(sections) + ("\n" if sections else "")
