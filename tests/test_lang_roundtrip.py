"""Round-trip properties: render∘parse is the identity on structure, render
is idempotent, and error positions stay inside the input."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nea.lang import (
    AgentProgram,
    BodyStep,
    ContextLiteral,
    CopingStrategy,
    LangError,
    Literal,
    NormDecl,
    PersonalityDecl,
    PlanDef,
    StepKind,
    Sym,
    TriggerEvent,
    TriggerKind,
    TriggerType,
    parse_agent_program,
    render,
    render_literal,
    render_trigger,
)

from conftest import corpus_files

# ----------------------------------------------------------------------
# literal text is memoized per instance, never by equality


@pytest.mark.parametrize("negative_first", [False, True])
def test_signed_zero_literals_keep_their_own_text(negative_first):
    pos, neg = Literal("x", (0.0,)), Literal("x", (-0.0,))
    assert pos == neg and hash(pos) == hash(neg)
    first, second = (neg, pos) if negative_first else (pos, neg)
    render_literal(first)
    render_literal(second)
    assert render_literal(pos) == "x(0.0)"
    assert render_literal(neg) == "x(-0.0)"
    held = {pos: "believed"}
    assert held[neg] == "believed", "equality-keyed lookups still match"
    assert render_literal(Literal("x", (-0.0,))) == "x(-0.0)"


def test_render_trigger_forms():
    lit = Literal("enter_classroom")
    assert render_trigger(TriggerEvent(TriggerKind.ADD, TriggerType.BELIEF, lit)) == "+enter_classroom"
    assert render_trigger(TriggerEvent(TriggerKind.DEL, TriggerType.BELIEF, lit)) == "-enter_classroom"
    assert render_trigger(TriggerEvent(TriggerKind.ADD, TriggerType.GOAL, lit)) == "+!enter_classroom"
    goal = TriggerEvent(TriggerKind.DEL, TriggerType.GOAL, Literal("put_on", (Sym("mask"),)))
    assert render_trigger(goal) == "-!put_on(mask)"


# ----------------------------------------------------------------------
# corpus round-trip (every file, skip-free)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_corpus_round_trip(path):
    program = parse_agent_program(path.read_text())
    canonical = render(program)
    again = parse_agent_program(canonical)
    assert again == program
    assert render(again) == canonical


# ----------------------------------------------------------------------
# generated-program round-trip


def _idents():
    first = st.sampled_from(string.ascii_lowercase)
    rest = st.text(string.ascii_lowercase + string.digits + "_", max_size=6)
    return (
        st.tuples(first, rest)
        .map("".join)
        .filter(lambda s: s != "not" and not s.startswith("np__"))
    )


def _numbers():
    return st.floats(min_value=-99.0, max_value=99.0, allow_nan=False).map(float)


def _strings():
    ok = string.ascii_letters + string.digits + " _-\\\"',;.:(){}[]"
    return st.text(ok, max_size=8)


def _terms():
    flat = st.one_of(
        _idents().map(Sym),
        _numbers(),
        _strings(),
    )
    return st.one_of(flat, st.tuples(flat, flat).map(tuple), st.just(()))


def _literals():
    return st.builds(
        Literal,
        _idents(),
        st.lists(_terms(), max_size=2).map(tuple),
    )


def _triggers():
    return st.builds(
        TriggerEvent,
        st.sampled_from(list(TriggerKind)),
        st.sampled_from(list(TriggerType)),
        _literals(),
    )


def _contexts():
    return st.lists(
        st.builds(ContextLiteral, _literals(), st.booleans()), max_size=2
    ).map(tuple)


def _steps():
    plain = st.builds(
        BodyStep,
        st.sampled_from([StepKind.ADD, StepKind.DEL, StepKind.ACT]),
        _literals(),
    )
    send = st.builds(
        lambda recipient, content: BodyStep(StepKind.SEND, recipient=recipient, content=content),
        st.one_of(_idents().map(Sym), _strings()),
        _literals(),
    )
    return st.one_of(plain, send)


def _plans(normative: bool):
    return st.builds(
        lambda trig, ctx, body, label: PlanDef(
            trigger=trig, context=ctx, body=body, label=label, normative=normative
        ),
        _triggers(),
        _contexts(),
        st.lists(_steps(), max_size=3).map(tuple),
        st.none() if normative else st.one_of(st.none(), _literals()),
    )


def _unit():
    return st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(float)


def _pairs():
    comp = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False).map(float)
    return st.tuples(comp, comp)


def _ranges():
    return _pairs().map(lambda p: (min(p), max(p)))


def _copings():
    return st.builds(
        CopingStrategy,
        _ranges(),
        _ranges(),
        st.lists(_literals(), max_size=2).map(tuple),
    )


def _personalities():
    traits = st.tuples(_unit(), _unit(), _unit(), _unit(), _unit())
    return st.builds(
        PersonalityDecl,
        traits,
        _unit(),
        st.lists(_copings(), max_size=2).map(tuple),
        _unit(),
    )


def _norms():
    return st.builds(
        NormDecl,
        st.sampled_from(["obligation", "prohibition"]),
        _plans(normative=True),
        st.integers(min_value=0, max_value=99),
        st.floats(min_value=0.0, max_value=99.0, allow_nan=False).map(float),
        st.one_of(st.just("ALL"), st.lists(_idents(), min_size=1, max_size=2).map(tuple)),
        _pairs(),
    )


def _programs():
    return st.builds(
        AgentProgram,
        st.lists(_literals(), min_size=1, max_size=3).map(tuple),
        st.lists(_literals(), max_size=2).map(tuple),
        st.lists(_plans(normative=False), max_size=3).map(tuple),
        st.lists(_literals(), max_size=2).map(tuple),
        st.one_of(st.none(), _personalities()),
        st.lists(_idents(), max_size=2).map(tuple),
        st.lists(_norms(), max_size=2).map(tuple),
    )


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_generated_program_round_trip(program):
    canonical = render(program)
    parsed = parse_agent_program(canonical)
    assert parsed == program
    assert render(parsed) == canonical


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_error_positions_stay_inside_input(text):
    try:
        parse_agent_program(text)
    except LangError as err:
        assert err.line is None or 1 <= err.line <= text.count("\n") + 1
        assert err.col is None or err.col >= 1
