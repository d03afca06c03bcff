"""Affect engine: state updates against an independent oracle, decay
contraction, appraisal, the feedback wire format, accumulation, and
emergent-norm detection with plan revision."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nea.affect import (
    accumulate_feedback,
    affect_decay,
    appraise,
    cope,
    detect_social_norm,
    revise_plan,
    select_coping,
    update_affect,
)
from nea.core import (
    SOURCE_SELF,
    AgentConfig,
    FeedbackRecord,
    MemKind,
    MemoryEvent,
)
from nea.cycle import context_holds
from nea.lang import (
    CopingStrategy,
    Literal,
    ParseError,
    StepKind,
    parse_feedback,
    parse_plan_text,
    render_feedback,
    render_plan,
)


# ----------------------------------------------------------------------
# update_affect: exact equivalence with the clamp oracle


def test_update_affect_worked_values():
    assert update_affect((0.0, 0.0), (0.5, 0.5), 1) == (0.5, 0.5)
    assert update_affect((0.9, 0.9), (0.5, 0.5), 1) == (1.0, 1.0)
    assert update_affect((0.3, -0.2), (0.0, 0.0), 4) == (0.3, -0.2)
    assert update_affect((-0.9, 0.0), (-0.5, 0.0), 1) == (-1.0, 0.0)
    assert update_affect((0.0, 0.0), (0.5, -0.3), 5) == (0.1, -0.06)


def test_update_affect_matches_clamp_oracle_exactly():
    rng = random.Random(20260815)
    for _ in range(10_000):
        sigma = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        response = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        n = rng.randint(1, 10)
        expected = (
            min(1.0, max(-1.0, sigma[0] + response[0] / n)),
            min(1.0, max(-1.0, sigma[1] + response[1] / n)),
        )
        got = update_affect(sigma, response, n)
        assert got == expected, "zero-error equivalence"
        assert -1.0 <= got[0] <= 1.0 and -1.0 <= got[1] <= 1.0


@settings(max_examples=300, deadline=None)
@given(
    sigma=st.tuples(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    ),
    response=st.tuples(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    ),
    n=st.integers(min_value=1, max_value=50),
)
def test_update_affect_moves_with_response_sign(sigma, response, n):
    got = update_affect(sigma, response, n)
    for i in (0, 1):
        unclamped = sigma[i] + response[i] / n
        assert got[i] == min(1.0, max(-1.0, unclamped))


# ----------------------------------------------------------------------
# affect_decay: contraction toward the neutral state


@settings(max_examples=300, deadline=None)
@given(
    sigma=st.tuples(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    ),
    rate=st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_affect_decay_contracts(sigma, rate):
    decayed = affect_decay(sigma, rate=rate)
    for i in (0, 1):
        assert abs(decayed[i]) <= abs(sigma[i])
        # strict shrink needs the rate above the rounding scale of
        # sigma*(1-rate) and sigma out of the subnormal range, where the
        # product can round back to sigma (e.g. 5e-324 * 0.75 == 5e-324)
        if abs(sigma[i]) >= sys.float_info.min and rate > 1e-9:
            assert abs(decayed[i]) < abs(sigma[i])
        if sigma[i] > 0:
            assert decayed[i] >= 0.0
        if sigma[i] < 0:
            assert decayed[i] <= 0.0
    assert affect_decay((0.0, 0.0), rate=rate) == (0.0, 0.0)


def test_affect_decay_rate_examples():
    assert affect_decay((0.5, -0.4), rate=0.05) == (0.5 * 0.95, -0.4 * 0.95)
    assert affect_decay((0.5, -0.4), rate=1.0) == (0.0, -0.0)


# ----------------------------------------------------------------------
# appraisal


def test_appraise_zero_pair_is_silent():
    ev = MemoryEvent(tick=0, kind=MemKind.SOCIAL_FEEDBACK, pair=(0.0, 0.0))
    assert appraise(ev) is None


def test_appraise_maps_pleasure_to_desirability():
    ev = MemoryEvent(tick=0, kind=MemKind.NORM_FEEDBACK, pair=(0.6, 0.2))
    av = appraise(ev)
    assert av.desirability == pytest.approx(0.8)
    assert av.likelihood == 1.0
    assert av.expectedness == 0.0
    assert av.causal_attribution == 0, "society-caused"


def test_appraise_attributes_own_acts():
    for kind in (MemKind.OWN_COMPLIANCE, MemKind.OWN_VIOLATION, MemKind.SELF_APPRAISAL):
        ev = MemoryEvent(tick=0, kind=kind, pair=(-0.4, 0.1))
        assert appraise(ev).causal_attribution == 1


# ----------------------------------------------------------------------
# coping


def test_select_coping_inclusive_rectangles():
    inside = CopingStrategy(pleasure=(-1.0, 0.0), arousal=(-1.0, 0.0), actions=(Literal("breathe"),))
    outside = CopingStrategy(pleasure=(0.5, 1.0), arousal=(0.5, 1.0), actions=())
    selected = select_coping((inside, outside), (-0.5, 0.0))
    assert selected == [inside], "boundaries are closed"


def test_cope_queues_act_intentions():
    agent = AgentConfig(id="c")
    strategy = CopingStrategy(
        pleasure=(-1.0, 0.0), arousal=(-1.0, 0.0), actions=(Literal("breathe"), Literal("rest"))
    )
    added = cope([strategy], agent)
    assert [i.plan.body[0].literal.functor for i in added] == ["breathe", "rest"]
    assert agent.C.I == added


# ----------------------------------------------------------------------
# feedback wire format


def test_feedback_wire_round_trip():
    condition = (("wearing_mask", True), ("in_campus", True))
    text = render_feedback(condition, (-0.1, -0.2))
    assert text == "(+wearing_mask;+in_campus),[-0.1,-0.2]"
    parsed_condition, pair = parse_feedback(text)
    assert parsed_condition == condition
    assert pair == (-0.1, -0.2)


def test_feedback_accepts_absent_literals():
    condition, pair = parse_feedback("(+wearing_mask;-in_classroom),[0.3,0.0]")
    assert condition == (("wearing_mask", True), ("in_classroom", False))
    assert pair == (0.3, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    names=st.lists(
        st.text("abcdefgh_", min_size=1, max_size=6).filter(lambda s: not s[0].isdigit()),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    flags=st.lists(st.booleans(), min_size=3, max_size=3),
    pair=st.tuples(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    ),
)
def test_feedback_round_trip_property(names, flags, pair):
    condition = tuple((n, f) for n, f in zip(names, flags))
    text = render_feedback(condition, pair)
    parsed_condition, parsed_pair = parse_feedback(text)
    assert parsed_condition == condition
    assert parsed_pair == pair


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "wearing_mask,[0.1,0.1]",
        "(wearing_mask),[0.1,0.1]",  # missing sign
        "(+wearing_mask)",  # missing pair
        "(+wearing_mask),[0.1]",  # one component
        "(+wearing_mask),[0.1,0.2] extra",
        "(+a(1)),[0.1,0.2]",  # condition literals are bare names
        "(+a),[x,0.1]",
        "(+a),[0.1,0.2,0.3]",
    ],
)
def test_malformed_feedback_rejected(bad):
    for _ in range(2):  # a failure is not cached
        with pytest.raises(ParseError):
            parse_feedback(bad)


# ----------------------------------------------------------------------
# accumulation


def test_accumulate_feedback_keyed_by_condition_set():
    store: dict = {}
    first = accumulate_feedback(store, (("a", True), ("b", True)), (-0.1, -0.2))
    second = accumulate_feedback(store, (("b", True), ("a", True)), (-0.3, -0.1))
    assert first is second, "literal order does not matter"
    assert len(store) == 1
    assert second.count == 2
    assert second.accumulated[0] == pytest.approx(-0.4)
    assert second.accumulated[1] == pytest.approx(-0.3)
    other = accumulate_feedback(store, (("a", True),), (0.2, 0.0))
    assert other is not second and len(store) == 2


# ----------------------------------------------------------------------
# emergent social norms: detection


CONFORMIST_EXIT = (
    "+exit_classroom:in_classroom <- -in_classroom; +in_campus; "
    "+enjoy_freetime; +enter_classroom."
)
REBEL_EXIT = (
    "+exit_classroom:in_classroom <- -in_classroom; -wearing_mask; "
    "+in_campus; +enjoy_freetime; +enter_classroom."
)


def masked_campus_record(pleasure=-0.6, arousal=-0.2) -> FeedbackRecord:
    record = FeedbackRecord(condition=frozenset({("wearing_mask", True), ("in_campus", True)}))
    record.accumulated = (pleasure, arousal)
    record.count = 4
    return record


def test_detection_needs_negative_deviation():
    plan = parse_plan_text(CONFORMIST_EXIT)
    bs = frozenset({"wearing_mask", "in_classroom"})
    below = masked_campus_record(-0.4, -0.4)
    assert detect_social_norm(below, [plan], bs, threshold=(0.5, 0.5)) == []
    at_threshold = masked_campus_record(-0.5, -0.4)
    assert detect_social_norm(at_threshold, [plan], bs, threshold=(0.5, 0.5)) == [plan]
    positive = masked_campus_record(0.9, 0.9)
    assert detect_social_norm(positive, [plan], bs, threshold=(0.5, 0.5)) == []


def test_detection_flags_only_reaching_plans():
    conformist = parse_plan_text(CONFORMIST_EXIT)
    rebel = parse_plan_text(REBEL_EXIT)
    bs = frozenset({"wearing_mask", "in_classroom"})
    record = masked_campus_record()
    flagged = detect_social_norm(record, [conformist, rebel], bs, (0.5, 0.5))
    assert flagged == [conformist], "the rebel plan removes the mask before campus"


@pytest.mark.parametrize("name", ["role", "flag"])
def test_only_a_role_check_is_not_a_belief(name):
    """Detection and ``context_holds`` share one role rule: only ``role(r)``
    checks the agent's roles, and a bare ``role`` is a belief like any
    other, which the plan's context makes true."""
    plan = parse_plan_text(f"+!go : {name} <- +x.")
    record = FeedbackRecord(condition=frozenset({(name, True), ("x", True)}), accumulated=(-0.6, -0.2))
    assert detect_social_norm(record, [plan], frozenset(), (0.5, 0.5)) == [plan]
    believer = AgentConfig("a", bs={Literal(name): {SOURCE_SELF}})
    assert context_holds(believer, plan.context)
    assert not context_holds(AgentConfig("b", roles=(name,)), plan.context)

    checked = parse_plan_text("+!go : role(prof) <- +x.")
    record = FeedbackRecord(condition=frozenset({("role(prof)", True), ("x", True)}), accumulated=(-0.6, -0.2))
    assert detect_social_norm(record, [checked], frozenset(), (0.5, 0.5)) == []
    assert context_holds(AgentConfig("c", roles=("prof",)), checked.context)
    assert not context_holds(AgentConfig("d", bs={checked.context[0].literal: {SOURCE_SELF}}), checked.context)


def test_revision_reproduces_the_rebel_plan():
    conformist = parse_plan_text(CONFORMIST_EXIT)
    rebel = parse_plan_text(REBEL_EXIT)
    bs = frozenset({"wearing_mask", "in_classroom"})
    revised = revise_plan(conformist, masked_campus_record(), bs)
    assert revised == rebel
    assert render_plan(revised) == render_plan(rebel)
    # and the revised plan no longer reaches the punished state
    assert detect_social_norm(masked_campus_record(), [revised], bs, (0.5, 0.5)) == []


def test_revision_seed_ignores_plan_added_literals():
    # standing on campus when the revision runs: in_campus is believed, but
    # the plan itself re-adds it, so no -in_campus deletion is inserted
    conformist = parse_plan_text(CONFORMIST_EXIT)
    bs = frozenset({"wearing_mask", "in_campus"})
    revised = revise_plan(conformist, masked_campus_record(), bs)
    deletions = [s.literal.functor for s in revised.body if s.kind is StepKind.DEL]
    assert deletions == ["in_classroom", "wearing_mask"]


def test_revision_requires_reachable_state():
    rebel = parse_plan_text(REBEL_EXIT)
    bs = frozenset({"wearing_mask", "in_classroom"})
    with pytest.raises(ValueError, match="does not reach"):
        revise_plan(rebel, masked_campus_record(), bs)


def test_revision_preserves_plan_identity_fields():
    plan = parse_plan_text("@route +exit:in <- -in; +out.")
    record = FeedbackRecord(condition=frozenset({("hat_on", True), ("out", True)}))
    record.accumulated = (-0.9, 0.0)
    revised = revise_plan(plan, record, frozenset({"hat_on", "in"}))
    assert revised.label == plan.label
    assert revised.trigger == plan.trigger
    assert revised.context == plan.context
    assert [s.literal.functor for s in revised.body] == ["in", "hat_on", "out"]
    assert [s.kind for s in revised.body] == [StepKind.DEL, StepKind.DEL, StepKind.ADD]
