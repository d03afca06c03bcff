"""Parser behaviour: the printed scenario fragments, token shapes, and the
error contract (positions, error classes, NotANorm)."""

from __future__ import annotations

import pytest

from nea.lang import (
    LexError,
    NotANorm,
    ParseError,
    SemanticError,
    StepKind,
    Sym,
    TriggerKind,
    TriggerType,
    parse_agent_program,
    parse_literal_text,
    parse_plan_text,
)
from nea.lang.tokens import TokenType, tokenize

from conftest import CORPUS_DIR, MASK_NORM_TEXT, parse_norm


# ----------------------------------------------------------------------
# tokens


def test_block_head_tokens():
    types = [t.type for t in tokenize("norms__: { }")]
    assert types[:4] == [TokenType.IDENT, TokenType.COLON, TokenType.LBRACE, TokenType.RBRACE]
    assert tokenize("norms__: { }")[0].value == "norms__"


def test_vector_tokens():
    toks = tokenize("[0.5,0.5]")
    assert [t.type for t in toks[:5]] == [
        TokenType.LBRACKET,
        TokenType.NUMBER,
        TokenType.COMMA,
        TokenType.NUMBER,
        TokenType.RBRACKET,
    ]
    assert toks[1].value == "0.5" and toks[3].value == "0.5"


def test_illegal_character_position():
    with pytest.raises(LexError) as err:
        tokenize("@€")
    assert err.value.col == 2
    assert err.value.line == 1


@pytest.mark.parametrize("text", ["µ(²", "a(1²).", "c(-²)."])
def test_digits_float_cannot_read_are_lex_errors(text):
    # superscripts are str.isdigit() but not decimal digits
    with pytest.raises(LexError, match="unexpected character"):
        parse_agent_program(text)


def test_tokens_carry_positions():
    toks = tokenize("a.\nbb(1).")
    assert (toks[0].line, toks[0].col) == (1, 1)
    bb = [t for t in toks if t.value == "bb"][0]
    assert (bb.line, bb.col) == (2, 1)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1.", [("NUMBER", "1", 1, 1), ("DOT", ".", 1, 2)]),
        ("1e+", [("NUMBER", "1", 1, 1), ("IDENT", "e", 1, 2), ("PLUS", "+", 1, 3)]),
        ("٣", [("NUMBER", "٣", 1, 1)]),  # ARABIC-INDIC DIGIT THREE is decimal
        ("a²", [("IDENT", "a²", 1, 1)]),  # a superscript may follow a letter
        ("note not", [("IDENT", "note", 1, 1), ("NOT", "not", 1, 6)]),
        ('"a\\"b\\\\c\\d"', [("STRING", 'a"b\\c\\d', 1, 1)]),  # only \" and \\ are escapes
        ('"a\nb" c', [("STRING", "a\nb", 1, 1), ("IDENT", "c", 2, 4)]),
        ("/* a\n */ x // y\nz", [("IDENT", "x", 2, 5), ("IDENT", "z", 3, 1)]),
    ],
)
def test_token_shapes(text, expected):
    toks = tokenize(text)
    assert [(t.type.name, t.value, t.line, t.col) for t in toks[:-1]] == expected
    assert toks[-1].type is TokenType.EOF


@pytest.mark.parametrize("pair", ['\\"', "\\\\"], ids=["quotes", "backslashes"])
def test_megabyte_of_escapes_is_one_string(pair):
    # scanned outside the token pattern: a repeat per escape there keeps one
    # backtracking state per escape (about 140 MB for this text)
    toks = tokenize('"' + pair * 2**19 + '" x')
    assert [(t.type.name, t.line, t.col) for t in toks[:2]] == [("STRING", 1, 1), ("IDENT", 1, 2**20 + 4)]
    assert toks[0].value == pair[1] * 2**19


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("²a", "unexpected character '²'", 1, 1),  # a word starts with a letter or _
        ("a\n  b/c", "unexpected character '/'", 2, 4),
        ('a\n  "bc\nd', "unterminated string", 2, 3),
        ('"a\\"', "unterminated string", 1, 1),  # the last quote is escaped
        ("a /* b\n c", "unterminated block comment", 1, 3),
        pytest.param('"' + "x" * 2**20, "unterminated string", 1, 1, id="1MB-string"),
        pytest.param("/*" + "x" * 2**20, "unterminated block comment", 1, 1, id="1MB-comment"),
    ],
)
def test_lex_error_positions(text, message, line, col):
    with pytest.raises(LexError) as err:
        tokenize(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


# ----------------------------------------------------------------------
# the printed scenario fragments


def test_classroom_entry_plan_structure():
    plan = parse_plan_text(
        "+enter_classroom:not in_classroom <- -in_campus; +in_classroom; "
        "+teach_lesson; -exit_classroom."
    )
    assert plan.trigger.kind is TriggerKind.ADD
    assert plan.trigger.type is TriggerType.BELIEF
    assert plan.trigger.literal.functor == "enter_classroom"
    assert [(c.negated, c.literal.functor) for c in plan.context] == [(True, "in_classroom")]
    assert [(s.kind, s.literal.functor) for s in plan.body] == [
        (StepKind.DEL, "in_campus"),
        (StepKind.ADD, "in_classroom"),
        (StepKind.ADD, "teach_lesson"),
        (StepKind.DEL, "exit_classroom"),
    ]
    assert not plan.normative


def test_conformist_exit_plan_structure():
    plan = parse_plan_text(
        "+exit_classroom:in_classroom <- -in_classroom; +in_campus; "
        "+enjoy_freetime; +enter_classroom."
    )
    assert [(s.kind, s.literal.functor) for s in plan.body] == [
        (StepKind.DEL, "in_classroom"),
        (StepKind.ADD, "in_campus"),
        (StepKind.ADD, "enjoy_freetime"),
        (StepKind.ADD, "enter_classroom"),
    ]


def test_rebel_exit_plan_structure():
    plan = parse_plan_text(
        "+exit_classroom:in_classroom <- -in_classroom; -wearing_mask; "
        "+in_campus; +enjoy_freetime; +enter_classroom."
    )
    assert [(s.kind, s.literal.functor) for s in plan.body] == [
        (StepKind.DEL, "in_classroom"),
        (StepKind.DEL, "wearing_mask"),
        (StepKind.ADD, "in_campus"),
        (StepKind.ADD, "enjoy_freetime"),
        (StepKind.ADD, "enter_classroom"),
    ]


def test_conformist_professor_program():
    src = (CORPUS_DIR / "professor_conformist.nea").read_text()
    program = parse_agent_program(src)
    assert [b.functor for b in program.beliefs] == ["in_campus"]
    assert len(program.plans) == 2
    assert len(program.norms) == 0
    assert [p.trigger.literal.functor for p in program.plans] == [
        "enter_classroom",
        "exit_classroom",
    ]


def test_mask_obligation_literal_structure():
    decl = parse_norm(MASK_NORM_TEXT)
    assert decl.deontic == "obligation"
    assert decl.limit == 0
    assert decl.relevance == 50.0
    assert decl.roles == "ALL"
    assert decl.pre_appraisal == (0.5, 0.5)
    plan = decl.plan
    assert plan.normative
    assert plan.trigger.kind is TriggerKind.ADD
    assert plan.trigger.literal.functor == "enter_classroom"
    assert [(c.negated, c.literal.functor) for c in plan.context] == [
        (False, "role"),
        (True, "wearing_mask"),
    ]
    assert plan.context[0].literal.args == (Sym("professor"),)
    assert [(s.kind, s.literal.functor) for s in plan.body] == [(StepKind.ADD, "wearing_mask")]


def test_yell_prohibition_block():
    src = (CORPUS_DIR / "norm_block_yell.nea").read_text()
    program = parse_agent_program(src)
    assert len(program.norms) == 1
    decl = program.norms[0]
    assert decl.deontic == "prohibition"
    assert decl.limit == 0
    assert decl.relevance == 50.0
    assert decl.roles == "ALL"
    assert decl.pre_appraisal == (0.1, 0.1)
    assert decl.plan.trigger.literal.functor == "yell"
    assert [(c.negated, c.literal.functor) for c in decl.plan.context] == [
        (False, "at_classroom")
    ]
    assert decl.plan.body == ()


# ----------------------------------------------------------------------
# whole-program shapes


def test_empty_program_rejected():
    with pytest.raises(ParseError):
        parse_agent_program("")


def test_out_of_order_sections_rejected():
    with pytest.raises(ParseError, match="out of order"):
        parse_agent_program("+p <- act.\nbelief_after_plan.")
    with pytest.raises(ParseError, match="out of order"):
        parse_agent_program("roles__: { a }.\npersonality__: { [0.5,0.5,0.5,0.5,0.5] }.")


def test_duplicate_block_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_agent_program("roles__: { a }.\nroles__: { b }.")


def test_block_trailing_dot_is_optional():
    with_dot = parse_agent_program("roles__: { a }.")
    without = parse_agent_program("roles__: { a }")
    assert with_dot == without


def test_error_position_within_input():
    source = "in_campus\n"  # missing final dot
    with pytest.raises(ParseError) as err:
        parse_agent_program(source)
    assert err.value.line is not None
    assert 1 <= err.value.line <= source.count("\n") + 1


def test_personality_defaults():
    program = parse_agent_program("personality__: { [0.1,0.2,0.3,0.4,0.5] }.")
    p = program.personality
    assert p.traits == (0.1, 0.2, 0.3, 0.4, 0.5)
    assert p.rationality == 0.0
    assert p.rebelliousness == 0.0
    assert p.coping == ()


def test_personality_trait_count_checked():
    with pytest.raises(SemanticError):
        parse_agent_program("personality__: { [0.1,0.2,0.3] }.")


def test_personality_levels_range_checked():
    with pytest.raises(SemanticError):
        parse_agent_program("personality__: { [0.1,0.2,0.3,0.4,0.5], 1.5 }.")


# ----------------------------------------------------------------------
# norm literal error contract


def test_not_a_norm_for_plain_belief():
    with pytest.raises(NotANorm):
        parse_norm("in_campus")


def test_unknown_deontic_operator_rejected():
    with pytest.raises(ParseError, match="deontic"):
        parse_norm('norm("permission", "np__x:c", 0, 1, "ALL", [0.0,0.0])')


def test_norm_arity_checked():
    with pytest.raises(ParseError, match="6 arguments"):
        parse_norm('norm("obligation", "np__x:c", 0, 1, "ALL")')


def test_pre_appraisal_range_checked():
    with pytest.raises(SemanticError):
        parse_norm('norm("obligation", "np__x:c", 0, 1, "ALL", [1.5,0.0])')


def test_embedded_plan_errors_become_semantic():
    with pytest.raises(SemanticError, match="embedded"):
        parse_norm('norm("obligation", "np__x:<-", 0, 1, "ALL", [0.0,0.0])')


def test_np_marker_required_in_norm_plans():
    with pytest.raises(SemanticError, match="np__"):
        parse_norm('norm("obligation", "+x:c <- +y.", 0, 1, "ALL", [0.0,0.0])')


def test_norm_roles_list_parses():
    decl = parse_norm('norm("obligation", "np__x:c", 0, 1, ["a","b"], [0.0,0.0])')
    assert decl.roles == ("a", "b")


def test_negative_relevance_rejected():
    with pytest.raises(SemanticError):
        parse_norm('norm("obligation", "np__x:c", 0, -1, "ALL", [0.0,0.0])')


def test_fractional_limit_rejected():
    with pytest.raises(SemanticError):
        parse_norm('norm("obligation", "np__x:c", 2.5, 1, "ALL", [0.0,0.0])')


NORM_NUMBERS = 'norm("obligation", "np__x:c", {limit}, {relevance}, "ALL", [0.0,0.0])'


@pytest.mark.parametrize(
    "source, line, col",
    [
        ("ok.\nx(1e400).", 2, 3),
        ("norms__: {\n  " + NORM_NUMBERS.format(limit="1e400", relevance=1) + "\n}.", 2, 33),
        ("norms__: {\n  " + NORM_NUMBERS.format(limit=0, relevance="1e400") + "\n}.", 2, 36),
        ("v([1, 2e400]).", 1, 7),
        ("y(-1e400).", 1, 3),
    ],
    ids=["belief-argument", "norm-limit", "norm-relevance", "vector-item", "negative"],
)
def test_number_too_large_for_a_float_rejected(source, line, col):
    # float() reads it as inf, which renders as the name inf: it would not
    # survive the canonical round trip, and int(inf) raises OverflowError
    with pytest.raises(SemanticError) as err:
        parse_agent_program(source)
    assert (err.value.message, err.value.line, err.value.col) == ("number is too large for a float", line, col)


# ----------------------------------------------------------------------
# plan grammar details


def test_only_sendmsg_internal_action():
    with pytest.raises(ParseError, match="sendMsg"):
        parse_agent_program("+p <- .broadcast(ALL, x).")


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_plan_text("+p <- act. extra")


def test_malformed_literal_fails_on_every_call():
    # parse_literal_text caches what it parses, but never a failure
    for _ in range(2):
        with pytest.raises(ParseError, match="trailing"):
            parse_literal_text("wearing_mask extra")
    assert parse_literal_text("in_campus(1.5)") is parse_literal_text("in_campus(1.5)")


def test_goal_trigger_with_np_marker():
    plan = parse_plan_text("np__!file_report:role(professor) <- +report_filed.")
    assert plan.normative
    assert plan.trigger.type is TriggerType.GOAL
    assert plan.trigger.kind is TriggerKind.ADD
    assert plan.trigger.literal.functor == "file_report"


def test_del_trigger_with_np_marker():
    plan = parse_plan_text("np__-wearing_badge:in_secure_area")
    assert plan.normative
    assert plan.trigger.kind is TriggerKind.DEL
    assert plan.trigger.literal.functor == "wearing_badge"
    assert plan.body == ()


def test_fused_np_marker_strips_to_trigger_name():
    plan = parse_plan_text("np__yell:at_classroom")
    assert plan.normative
    assert plan.trigger.literal.functor == "yell"
