"""Recursive-descent parser for the agent-definition language.

The accepted grammar (documented in full in docs/grammar.md):

    program     := belief* goal* plan* concerns? personality? roles? norms?
    belief      := literal "."
    goal        := "!" literal "."
    plan        := [ "@" literal ] trigger [ ":" context ] [ "<-" body ] "."
    trigger     := ("+" | "-") [ "!" ] literal
    context     := ["not"] literal ( "&" ["not"] literal )*
    body        := step ( ";" step )*
    step        := "+" literal | "-" literal | literal | "." "sendMsg" "(" term "," literal ")"

plus the block forms ``concerns__``, ``personality__``, ``roles__`` and
``norms__``.  The language is ground: literals carry no variables, only flat
terms (identifiers, numbers, strings, bracketed vectors).

Normative plans — the plan texts embedded in ``norm(...)`` literals — use the
``np__`` trigger marker.  The marker is stripped from the trigger (so the
trigger matches base-plan events) and recorded as ``PlanDef.normative``.
"""

from __future__ import annotations

import functools
import math

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
)
from .errors import LangError, NotANorm, ParseError, SemanticError
from .tokens import Token, TokenType, tokenize

NP_MARKER = "np__"

DEONTIC_OPERATORS = ("obligation", "prohibition")

_BLOCK_HEADS = ("concerns__", "personality__", "roles__", "norms__")


class Parser:
    """Single-pass parser over a token list produced by ``tokenize``."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # token-stream helpers

    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.type is not TokenType.EOF:
            self._pos += 1
        return tok

    def _check(self, ttype: TokenType, value: str | None = None) -> bool:
        tok = self._current()
        if tok.type is not ttype:
            return False
        return value is None or tok.value == value

    def _match(self, ttype: TokenType, value: str | None = None) -> Token | None:
        if self._check(ttype, value):
            return self._advance()
        return None

    def _expect(self, ttype: TokenType, what: str) -> Token:
        tok = self._current()
        if tok.type is not ttype:
            raise ParseError(
                f"expected {what}, found {tok.value!r}" if tok.value else f"expected {what}, found end of input",
                tok.line,
                tok.col,
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        tok = self._current()
        return ParseError(message, tok.line, tok.col)

    def _at_eof(self) -> bool:
        return self._current().type is TokenType.EOF

    def _at_end(self, result, what: str):
        """*result*, once the text has nothing left after the *what*."""
        tok = self._current()
        if tok.type is not TokenType.EOF:
            raise ParseError(f"trailing input {tok.value!r} after {what}", tok.line, tok.col)
        return result

    def _items(self, parse_item, close: TokenType, what: str) -> tuple:
        """``item ("," item)*``, possibly empty, then the *close* token."""
        items = []
        if not self._check(close):
            items.append(parse_item())
            while self._match(TokenType.COMMA):
                items.append(parse_item())
        self._expect(close, what)
        return tuple(items)

    # ------------------------------------------------------------------
    # program

    def parse_program(self) -> AgentProgram:
        beliefs: list[Literal] = []
        goals: list[Literal] = []
        plans: list[PlanDef] = []
        concerns: tuple[Literal, ...] = ()
        personality: PersonalityDecl | None = None
        roles: tuple[str, ...] = ()
        norms: tuple[NormDecl, ...] = ()

        # section indices keep declarations in canonical order
        section = 0  # 0 beliefs, 1 goals, 2 plans, 3.. blocks
        seen_blocks: list[str] = []

        if self._at_eof():
            raise self._error("empty program: at least one declaration is required")

        while not self._at_eof():
            tok = self._current()
            if tok.type is TokenType.IDENT and tok.value in _BLOCK_HEADS and self._peek().type is TokenType.COLON:
                head = tok.value
                if head in seen_blocks:
                    raise self._error(f"duplicate {head} block")
                block_rank = 3 + _BLOCK_HEADS.index(head)
                if block_rank < section:
                    raise self._error(f"{head} block out of order")
                section = block_rank
                seen_blocks.append(head)
                self._advance()
                self._expect(TokenType.COLON, "':' after block name")
                self._expect(TokenType.LBRACE, "'{'")
                if head == "concerns__":
                    concerns = self._items(self._parse_literal, TokenType.RBRACE, "'}'")
                elif head == "personality__":
                    personality = self._parse_personality_block()
                elif head == "roles__":
                    roles = self._items(self._parse_role_name, TokenType.RBRACE, "'}'")
                else:
                    norms = self._parse_norms_block()
                # the brace already delimits the block: a trailing '.' is optional
                self._match(TokenType.DOT)
                continue

            if tok.type is TokenType.IDENT:
                if section > 0:
                    raise self._error("belief declaration out of order (beliefs come first)")
                beliefs.append(self._parse_literal())
                self._expect(TokenType.DOT, "'.' after belief")
                continue

            if tok.type is TokenType.BANG:
                if section > 1:
                    raise self._error("goal declaration out of order (goals precede plans)")
                section = 1
                self._advance()
                goals.append(self._parse_literal())
                self._expect(TokenType.DOT, "'.' after goal")
                continue

            if tok.type in (TokenType.PLUS, TokenType.MINUS, TokenType.AT):
                if section > 2:
                    raise self._error("plan declaration out of order (plans precede blocks)")
                section = 2
                plans.append(self._parse_plan())
                continue

            raise self._error(f"unexpected token {tok.value!r}")

        return AgentProgram(
            beliefs=tuple(beliefs),
            goals=tuple(goals),
            plans=tuple(plans),
            concerns=concerns,
            personality=personality,
            roles=roles,
            norms=norms,
        )

    # ------------------------------------------------------------------
    # literals and terms

    def _parse_literal(self) -> Literal:
        name = self._expect(TokenType.IDENT, "identifier")
        args: tuple = ()
        if self._match(TokenType.LPAREN):
            args = self._items(self._parse_term, TokenType.RPAREN, "')'")
        return Literal(name.value, args)

    def _parse_term(self, in_vector: bool = False):
        """A name, string, number or vector; a vector item is no vector,
        and anything else there must be a number."""
        tok = self._current()
        if tok.type is TokenType.IDENT:
            self._advance()
            return Sym(tok.value)
        if tok.type is TokenType.STRING:
            self._advance()
            return tok.value
        if tok.type is TokenType.LBRACKET and not in_vector:
            return self._parse_vector()
        if in_vector or tok.type in (TokenType.NUMBER, TokenType.PLUS, TokenType.MINUS):
            return self._parse_number()
        raise self._error(f"expected a term, found {tok.value!r}")

    def _parse_number(self) -> float:
        start = self._current()
        sign = 1.0
        if self._match(TokenType.MINUS):
            sign = -1.0
        elif self._match(TokenType.PLUS):
            sign = 1.0
        value = sign * float(self._expect(TokenType.NUMBER, "number").value)
        if not math.isfinite(value):  # 1e400: it would render as the name inf
            raise SemanticError("number is too large for a float", start.line, start.col)
        return value

    def _parse_vector(self) -> tuple:
        """Bracketed list of numbers, strings or identifiers."""
        self._expect(TokenType.LBRACKET, "'['")
        return self._items(lambda: self._parse_term(in_vector=True), TokenType.RBRACKET, "']'")

    # ------------------------------------------------------------------
    # plans

    def _parse_plan(self, *, in_norm: bool = False) -> PlanDef:
        label: Literal | None = None
        if self._match(TokenType.AT):
            label = self._parse_literal()

        trigger, normative = self._parse_trigger(in_norm=in_norm)

        context: tuple[ContextLiteral, ...] = ()
        if self._match(TokenType.COLON):
            context = tuple(self._parse_context())

        body: tuple[BodyStep, ...] = ()
        if self._match(TokenType.ARROW):
            body = tuple(self._parse_body())

        self._expect(TokenType.DOT, "'.' at end of plan")
        return PlanDef(trigger=trigger, context=context, body=body, label=label, normative=normative)

    def _parse_trigger(self, *, in_norm: bool) -> tuple[TriggerEvent, bool]:
        normative = False
        kind = None
        if self._check(TokenType.IDENT):
            # np__-marked trigger: "np__name" as one identifier, or a bare
            # "np__" marker followed by a signed trigger.
            tok = self._current()
            if tok.value == NP_MARKER:
                normative = True
                self._advance()
            elif tok.value.startswith(NP_MARKER) and len(tok.value) > len(NP_MARKER):
                normative = True
            elif not in_norm:
                raise self._error("plan trigger must start with '+' or '-'")
            if not normative:
                raise self._error("normative plan trigger must carry the np__ marker")

        if self._match(TokenType.PLUS):
            kind = TriggerKind.ADD
        elif self._match(TokenType.MINUS):
            kind = TriggerKind.DEL
        elif normative:
            kind = TriggerKind.ADD  # np__name defaults to a belief addition
        else:
            raise self._error("plan trigger must start with '+' or '-'")

        ttype = TriggerType.GOAL if self._match(TokenType.BANG) else TriggerType.BELIEF
        literal = self._parse_literal()
        if literal.functor.startswith(NP_MARKER):
            normative = True
            stripped = literal.functor[len(NP_MARKER) :]
            if not stripped:
                raise self._error("np__ marker must prefix a trigger name")
            literal = Literal(stripped, literal.args)
        return TriggerEvent(kind, ttype, literal), normative

    def _parse_context(self) -> list[ContextLiteral]:
        out = [self._parse_context_literal()]
        while self._match(TokenType.AMP):
            out.append(self._parse_context_literal())
        return out

    def _parse_context_literal(self) -> ContextLiteral:
        negated = self._match(TokenType.NOT) is not None
        return ContextLiteral(self._parse_literal(), negated)

    def _parse_body(self) -> list[BodyStep]:
        out = [self._parse_step()]
        while self._match(TokenType.SEMICOLON):
            out.append(self._parse_step())
        return out

    def _parse_step(self) -> BodyStep:
        if self._match(TokenType.PLUS):
            return BodyStep(StepKind.ADD, self._parse_literal())
        if self._match(TokenType.MINUS):
            return BodyStep(StepKind.DEL, self._parse_literal())
        if self._check(TokenType.DOT):
            # internal action: .sendMsg(recipient, content)
            nxt = self._peek()
            if nxt.type is TokenType.IDENT and nxt.value == "sendMsg":
                self._advance()
                self._advance()
                self._expect(TokenType.LPAREN, "'(' after sendMsg")
                recipient = self._parse_term()
                if not isinstance(recipient, (Sym, str)):
                    raise self._error("sendMsg recipient must be a name")
                self._expect(TokenType.COMMA, "',' between sendMsg arguments")
                content = self._parse_literal()
                self._expect(TokenType.RPAREN, "')' after sendMsg arguments")
                return BodyStep(StepKind.SEND, recipient=recipient, content=content)
            raise self._error("only .sendMsg is available as an internal action")
        if self._check(TokenType.IDENT):
            return BodyStep(StepKind.ACT, self._parse_literal())
        raise self._error(f"expected a body step, found {self._current().value!r}")

    # ------------------------------------------------------------------
    # blocks (parse_program reads the head and the opening brace)

    def _parse_role_name(self) -> str:
        tok = self._current()
        if tok.type in (TokenType.STRING, TokenType.IDENT):
            self._advance()
            return tok.value
        raise self._error("expected a role name")

    def _parse_personality_block(self) -> PersonalityDecl:
        tok = self._current()
        traits_vec = self._parse_vector()
        if len(traits_vec) != 5 or not all(isinstance(v, float) for v in traits_vec):
            raise SemanticError("personality traits must be five numbers", tok.line, tok.col)
        for v in traits_vec:
            if not 0.0 <= v <= 1.0:
                raise SemanticError("personality traits must lie in [0,1]", tok.line, tok.col)

        numbers: list[float] = []
        coping: tuple[CopingStrategy, ...] | None = None
        while self._match(TokenType.COMMA):
            tok = self._current()
            if tok.type is TokenType.LBRACKET:
                if coping is not None:
                    raise self._error("duplicate coping-strategy list")
                self._advance()
                coping = self._items(self._parse_coping_strategy, TokenType.RBRACKET, "']'")
            else:
                if len(numbers) == 2:
                    raise self._error("too many numeric personality slots")
                value = self._parse_number()
                if not 0.0 <= value <= 1.0:
                    raise SemanticError(
                        "personality levels must lie in [0,1]", tok.line, tok.col
                    )
                numbers.append(value)
        self._expect(TokenType.RBRACE, "'}'")

        rationality = numbers[0] if numbers else 0.0
        rebelliousness = numbers[1] if len(numbers) > 1 else 0.0
        return PersonalityDecl(
            traits=tuple(traits_vec),
            rationality=rationality,
            coping=coping or (),
            rebelliousness=rebelliousness,
        )

    def _parse_coping_strategy(self) -> CopingStrategy:
        head = self._expect(TokenType.IDENT, "'cope'")
        if head.value != "cope":
            raise ParseError("coping strategies are written cope([..],[..],[..])", head.line, head.col)
        self._expect(TokenType.LPAREN, "'('")
        pleasure = self._parse_range(head)
        self._expect(TokenType.COMMA, "','")
        arousal = self._parse_range(head)
        self._expect(TokenType.COMMA, "','")
        self._expect(TokenType.LBRACKET, "'['")
        actions = self._items(self._parse_literal, TokenType.RBRACKET, "']'")
        self._expect(TokenType.RPAREN, "')'")
        return CopingStrategy(pleasure=pleasure, arousal=arousal, actions=actions)

    def _parse_range(self, head: Token) -> tuple[float, float]:
        vec = self._parse_vector()
        if len(vec) != 2 or not all(isinstance(v, float) for v in vec):
            raise SemanticError("coping range must be two numbers", head.line, head.col)
        lo, hi = vec
        if not (-1.0 <= lo <= hi <= 1.0):
            raise SemanticError("coping range must be ordered and lie in [-1,1]", head.line, head.col)
        return (lo, hi)

    def _parse_norms_block(self) -> tuple[NormDecl, ...]:
        items: list[NormDecl] = []
        while not self._check(TokenType.RBRACE):
            items.append(self._parse_norm_call())
            separated = False
            while self._match(TokenType.DOT) or self._match(TokenType.COMMA):
                separated = True
            if not separated and not self._check(TokenType.RBRACE):
                raise self._error("norm entries must be separated by '.' or ','")
        self._expect(TokenType.RBRACE, "'}'")
        return tuple(items)

    def _parse_norm_call(self) -> NormDecl:
        tok = self._current()
        lit = self._parse_literal()
        return norm_from_literal(lit, tok.line, tok.col)


# ----------------------------------------------------------------------
# norm literal -> NormDecl


def norm_from_literal(lit: Literal, line: int | None = None, col: int | None = None) -> NormDecl:
    """Validate a parsed ``norm(...)`` literal and build its NormDecl."""
    if lit.functor != "norm":
        raise NotANorm(f"expected a norm(...) literal, found {lit.functor!r}", line, col)
    if len(lit.args) != 6:
        raise ParseError(
            f"norm(...) takes 6 arguments (operator, plan, limit, relevance, roles, pre-appraisal), found {len(lit.args)}",
            line,
            col,
        )
    op_arg, plan_arg, limit_arg, rel_arg, roles_arg, pa_arg = lit.args

    deontic = op_arg.name if isinstance(op_arg, Sym) else op_arg
    if not isinstance(deontic, str) or deontic not in DEONTIC_OPERATORS:
        raise ParseError(
            f"deontic operator must be one of {DEONTIC_OPERATORS}, found {deontic!r}", line, col
        )

    if not isinstance(plan_arg, str):
        raise ParseError("the normative plan must be given as a string", line, col)
    try:
        plan = parse_plan_text(plan_arg)
    except LangError as exc:
        raise SemanticError(f"embedded normative plan does not parse: {exc.message}", line, col) from exc
    if not plan.normative:
        raise SemanticError("normative plan must carry the np__ trigger marker", line, col)

    if not isinstance(limit_arg, float) or limit_arg != int(limit_arg) or limit_arg < 0:
        raise SemanticError("limit cycle must be a non-negative integer (0 = unbounded)", line, col)
    limit = int(limit_arg)

    if not isinstance(rel_arg, float) or rel_arg < 0:
        raise SemanticError("norm relevance must be a non-negative number", line, col)

    roles: str | tuple[str, ...]
    if isinstance(roles_arg, (str, Sym)):
        name = roles_arg.name if isinstance(roles_arg, Sym) else roles_arg
        if name != "ALL":
            raise SemanticError('affected roles must be "ALL" or a bracketed role list', line, col)
        roles = "ALL"
    elif isinstance(roles_arg, tuple):
        names: list[str] = []
        for item in roles_arg:
            if isinstance(item, Sym):
                names.append(item.name)
            elif isinstance(item, str):
                names.append(item)
            else:
                raise SemanticError("affected-role lists may contain only role names", line, col)
        roles = tuple(names)
    else:
        raise SemanticError('affected roles must be "ALL" or a bracketed role list', line, col)

    if (
        not isinstance(pa_arg, tuple)
        or len(pa_arg) != 2
        or not all(isinstance(v, float) for v in pa_arg)
    ):
        raise SemanticError("pre-appraisal must be a two-number vector", line, col)
    if not all(-1.0 <= v <= 1.0 for v in pa_arg):
        raise SemanticError("pre-appraisal components must lie in [-1,1]", line, col)

    return NormDecl(
        deontic=deontic,
        plan=plan,
        limit=limit,
        relevance=float(rel_arg),
        roles=roles,
        pre_appraisal=(pa_arg[0], pa_arg[1]),
    )


# ----------------------------------------------------------------------
# public entry points


def parse_agent_program(text: str) -> AgentProgram:
    """Parse a full agent definition.

    Raises LexError / ParseError / SemanticError with 1-based positions.
    It is not cached: a ``Society`` parses each distinct program text of
    its roster once, and its agents share the immutable ``AgentProgram``.
    """
    return Parser(tokenize(text)).parse_program()


def parse_plan_text(text: str) -> PlanDef:
    """Parse a single plan, as embedded in norm literals (np__ form allowed).

    The trailing '.' is optional here; norm strings conventionally carry it.
    It is not cached: a run parses each distinct norm text once already,
    into ``EnvironmentView.norms``, which every agent adopting the norm
    shares.
    """
    parser = Parser(tokenize(text if text.rstrip().endswith(".") else text + "."))
    return parser._at_end(parser._parse_plan(in_norm=True), "plan")


@functools.lru_cache(maxsize=1024)
def parse_literal_text(text: str) -> Literal:
    """Parse a single ground literal (trailing '.' optional), as found in
    message contents.  A society sends the same few texts over and over, so
    each is parsed once; a ``Literal`` is immutable, and a text that fails
    to parse is not cached."""
    parser = Parser(tokenize(text))
    lit = parser._parse_literal()
    parser._match(TokenType.DOT)
    return parser._at_end(lit, "literal")


@functools.lru_cache(maxsize=256)
def parse_feedback(text: str) -> tuple[tuple[tuple[str, bool], ...], tuple[float, float]]:
    """Parse the feedback wire format ``(+lit;-lit),[p,a]`` (docs/grammar.md);
    inverse of ``render_feedback``.  Condition literals are bare names.
    Observers repeat one text, so each is parsed once (the result is a
    tuple of tuples; a malformed text is not cached)."""
    parser = Parser(tokenize(text))
    parser._expect(TokenType.LPAREN, "'(' opening the feedback condition")
    condition = []
    while True:
        sign = parser._match(TokenType.PLUS) or parser._match(TokenType.MINUS)
        if sign is None:
            raise parser._error("feedback condition literals carry a sign")
        name = parser._expect(TokenType.IDENT, "identifier")
        condition.append((name.value, sign.type is TokenType.PLUS))
        if not parser._match(TokenType.SEMICOLON):
            break
    parser._expect(TokenType.RPAREN, "')'")
    parser._expect(TokenType.COMMA, "','")
    tok = parser._current()
    pair = parser._parse_vector()
    if len(pair) != 2 or not all(isinstance(v, float) for v in pair):
        raise ParseError("the feedback pair must be two numbers", tok.line, tok.col)
    return tuple(condition), parser._at_end(pair, "feedback")
