"""Affect engine: appraisal, affective-state updates and decay, coping,
belief synchronisation, and social-feedback accumulation with plan revision.
The feedback wire format is read and written by ``nea.lang``.
"""

from __future__ import annotations

from .core import (
    AffectPair,
    AgentConfig,
    AppraisalVariables,
    FeedbackRecord,
    Intention,
    MemKind,
    MemoryEvent,
    SELF_CAUSED,
    UbEntry,
    UbKind,
    clamp_pair,
    role_name,
)
from .lang import (
    BodyStep,
    CopingStrategy,
    Literal,
    PlanDef,
    StepKind,
    TriggerEvent,
    TriggerKind,
    TriggerType,
    render_literal,
)
from .norms import BREAK, COMPLY

# ----------------------------------------------------------------------
# appraisal and affective state


def appraise(event: MemoryEvent) -> AppraisalVariables | None:
    """Appraisal variables for a memory event; None for a zero pair.

    Desirability maps the pleasure component into [0,1]; a self-caused event
    attributes causality to the agent.  Likelihood/controllability default to
    certainty for realized events, expectedness to 0 (the event already
    surprised the agent into memory).
    """
    pleasure, _arousal = event.pair
    if event.pair == (0.0, 0.0):
        return None
    return AppraisalVariables(
        desirability=(pleasure + 1.0) / 2.0,
        likelihood=1.0,
        expectedness=0.0,
        controllability=1.0,
        causal_attribution=1 if event.kind in SELF_CAUSED else 0,
    )


def update_affect(sigma: AffectPair, response: AffectPair, n_agents: int) -> AffectPair:
    """Shift the affective state by response/n, clamped to [-1,1]^2."""
    return clamp_pair((sigma[0] + response[0] / n_agents, sigma[1] + response[1] / n_agents))


def affect_decay(sigma: AffectPair, rate: float) -> AffectPair:
    """Multiplicative per-tick pull toward the neutral state."""
    return (sigma[0] * (1.0 - rate), sigma[1] * (1.0 - rate))


# ----------------------------------------------------------------------
# coping


def select_coping(coping: tuple[CopingStrategy, ...], sigma: AffectPair) -> list[CopingStrategy]:
    """Strategies whose pleasure x arousal rectangle contains sigma."""
    return [c for c in coping if c.matches(sigma)]


_COPE = TriggerEvent(TriggerKind.ADD, TriggerType.GOAL, Literal("cope"))


def cope(strategies: list[CopingStrategy], agent: AgentConfig) -> list[Intention]:
    """Queue one ``+!cope`` intention per strategy action at the tail of C.I,
    except for an action whose ``+!cope`` intention is still pending: like
    Jason, never re-post a pending goal (docs/grammar.md, Personality)."""
    pending = {s.literal for i in agent.C.I if i.plan.trigger == _COPE for s in i.remaining}
    added: list[Intention] = []
    for strategy in strategies:
        for action in strategy.actions:
            if action in pending:
                continue
            pending.add(action)
            plan = PlanDef(trigger=_COPE, body=(BodyStep(StepKind.ACT, action),))
            intent = agent.new_intention(plan)
            agent.C.I.append(intent)
            added.append(intent)
    return added


# ----------------------------------------------------------------------
# belief synchronisation (AffModB)


def belief_event(kind: TriggerKind, lit: Literal) -> TriggerEvent:
    """The event of the belief *lit* added (``TriggerKind.ADD``) or deleted."""
    return TriggerEvent(kind, TriggerType.BELIEF, lit)


def sync_beliefs(agent: AgentConfig, tick: int) -> dict:
    """Apply the pending belief updates, queueing an event per actual change
    and converting queued appraisals into memory events.  Returns a summary
    of what changed (for the trace)."""
    added: list[str] = []
    removed: list[str] = []
    appraised: list[str] = []

    for entry in agent.Ta.Ub:
        if entry.kind is UbKind.ADD:
            if agent.add_belief(entry.literal, entry.source):
                agent.C.E.append(belief_event(TriggerKind.ADD, entry.literal))
                added.append(render_literal(entry.literal))
        elif entry.kind is UbKind.DEL:
            if agent.remove_belief(entry.literal, entry.source):
                agent.C.E.append(belief_event(TriggerKind.DEL, entry.literal))
                removed.append(render_literal(entry.literal))
        else:  # UbKind.APPRAISE
            if entry.variant == COMPLY:
                kind = MemKind.OWN_COMPLIANCE
            elif entry.variant == BREAK:
                kind = MemKind.OWN_VIOLATION
            else:
                kind = MemKind.SELF_APPRAISAL
            agent.Mem.append(MemoryEvent(tick, kind, entry.pair, entry.norm_id))
            appraised.append(entry.variant or "?")

    agent.Ta.Ub = []
    return {"added": added, "removed": removed, "appraised": appraised}


def queue_belief_add(agent: AgentConfig, literal: Literal, source: str) -> None:
    agent.Ta.Ub.append(UbEntry(UbKind.ADD, literal=literal, source=source))


def queue_belief_del(agent: AgentConfig, literal: Literal, source: str | None) -> None:
    agent.Ta.Ub.append(UbEntry(UbKind.DEL, literal=literal, source=source))


# ----------------------------------------------------------------------
# social feedback: accumulation and emergence


def accumulate_feedback(
    store: dict,
    condition,
    pair: AffectPair,
) -> FeedbackRecord:
    """Fold one feedback receipt into the record for its condition set.

    Records are keyed by set equality of the condition, so literal order in
    the wire format does not matter.
    """
    key = frozenset(condition)
    record = store.get(key)
    if record is None:
        record = FeedbackRecord(condition=key)
        store[key] = record
    record.accumulated = (record.accumulated[0] + pair[0], record.accumulated[1] + pair[1])
    record.count += 1
    return record


# ----------------------------------------------------------------------
# emergent social norms: detection and plan revision


def _condition_parts(condition: frozenset) -> tuple[set, set]:
    present = {text for text, flag in condition if flag}
    absent = {text for text, flag in condition if not flag}
    return present, absent


def _satisfies(state: set, present: set, absent: set) -> bool:
    return present <= state and not (absent & state)


def believed_condition(record: FeedbackRecord, belief_texts: frozenset) -> frozenset:
    """The record's avoid literals (present condition texts) that the belief
    base holds: all that detection and revision read of the beliefs."""
    return frozenset(text for text, flag in record.condition if flag and text in belief_texts)


def _simulation_seed(plan: PlanDef, believed: frozenset) -> set:
    """Start state for post-state simulation.

    Seeded with the *believed* avoid literals — except those the plan
    itself adds (they are the plan's doing, not lingering state, so a
    deletion inserted for them would be undone by the plan anyway) — then
    constrained by the plan's context: positive context literals other than
    role checks (``core.role_name``) hold, negated ones do not.
    """
    plan_adds = {
        render_literal(step.literal) for step in plan.body if step.kind is StepKind.ADD
    }
    state = {text for text in believed if text not in plan_adds}
    for cl in plan.context:
        text = render_literal(cl.literal)
        if cl.negated:
            state.discard(text)
        elif role_name(cl.literal) is None:
            state.add(text)
    return state


def _apply_step(state: set, step: BodyStep) -> None:
    if step.kind is StepKind.ADD:
        state.add(render_literal(step.literal))
    elif step.kind is StepKind.DEL:
        state.discard(render_literal(step.literal))


def detect_social_norm(
    record: FeedbackRecord,
    ps: list,
    belief_texts: frozenset,
    threshold: AffectPair,
) -> list:
    """Plans whose execution can leave the agent in the record's condition,
    once the accumulated feedback deviates negatively beyond *threshold*
    on either component.  Positive deviations never trigger.
    *belief_texts* holds the texts of the believed literals."""
    acc_p, acc_a = record.accumulated
    if not (acc_p <= -threshold[0] or acc_a <= -threshold[1]):
        return []

    present, absent = _condition_parts(record.condition)
    believed = believed_condition(record, belief_texts)
    flagged = []
    for plan in ps:
        state = _simulation_seed(plan, believed)
        for step in plan.body:
            _apply_step(state, step)
        if _satisfies(state, present, absent):
            flagged.append(plan)
    return flagged


def revise_plan(
    plan: PlanDef,
    record: FeedbackRecord,
    belief_texts: frozenset,
) -> PlanDef:
    """Copy of *plan* that deletes, immediately before the body step that
    completes the avoid condition, the avoid literals still true at that
    point — so executing the plan no longer lands in the punished state."""
    present, absent = _condition_parts(record.condition)
    state = _simulation_seed(plan, believed_condition(record, belief_texts))

    completing_index = 0 if _satisfies(state, present, absent) else None
    before_state = set(state)
    for idx, step in enumerate(plan.body):
        prior = set(state)
        _apply_step(state, step)
        if completing_index is None and _satisfies(state, present, absent):
            completing_index = idx
            before_state = prior
            break

    if completing_index is None:
        raise ValueError("plan does not reach the avoid condition; nothing to revise")

    to_delete = sorted(present & before_state)
    deletions = tuple(BodyStep(StepKind.DEL, _literal_from_text(t)) for t in to_delete)
    body = plan.body[:completing_index] + deletions + plan.body[completing_index:]
    return PlanDef(
        trigger=plan.trigger,
        context=plan.context,
        body=body,
        label=plan.label,
        normative=plan.normative,
        norm_id=plan.norm_id,
        variant=plan.variant,
    )


def _literal_from_text(text: str) -> Literal:
    # condition literals are bare names in the wire format
    return Literal(text)
