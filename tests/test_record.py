"""Record types (``nea.record``): what the hand-written record classes keep
of dataclass behaviour, and that importing the CLI does not load
``dataclasses``."""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import nea
from nea.core import AgentConfig, FeedbackRecord, Message
from nea.lang import Literal, Sym, parse_plan_text, tokenize
from nea.norms import UtilityInputs

from conftest import PATROL_SOURCE, build_agent


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(nea.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import nea.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "record, field",
    [
        (Literal("x", (1.0,)), "functor"),
        (parse_plan_text("+a <- b."), "body"),
        (tokenize("x")[0], "value"),
        (UtilityInputs(reb=0.1, frac_affected=0.5, s=0.0, s_new=0.2, relevance=1.0), "relevance"),
    ],
    ids=["Literal", "PlanDef", "Token", "UtilityInputs"],
)
def test_frozen_records_refuse_writes(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == value


def test_literal_equality_and_hash():
    zero, negative_zero = Literal("x", (0.0,)), Literal("x", (-0.0,))
    assert zero == negative_zero and hash(zero) == hash(negative_zero)
    assert zero.text == "x(0.0)" and negative_zero.text == "x(-0.0)"
    assert Literal("a") != ("a", ())
    assert Sym("a") != Literal("a")
    assert {Literal("a", (Sym("b"),)): 1}[Literal("a", (Sym("b"),))] == 1


def test_mutable_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(Message(mid=1, sender="a", content="x"))


def test_record_repr_names_its_fields():
    message = Message(mid=3, sender="a", content="x", recipient="b")
    assert repr(message) == (
        "Message(mid=3, sender='a', content='x', norm=None, appraisal=None, recipient='b')"
    )
    assert repr(tokenize("x")[0]) == "IDENT('x'@1:1)"


def test_frozen_records_pickle():
    plan = parse_plan_text('+a(1, "q") : not b <- c; +d.')
    assert pickle.loads(pickle.dumps(plan)) == plan
    assert pickle.loads(pickle.dumps(tokenize("x")[0])) == tokenize("x")[0]


def test_deep_copy_of_an_agent_is_equal():
    agent = build_agent(PATROL_SOURCE)
    agent.belief_texts()
    clone = copy.deepcopy(agent)
    assert clone == agent and clone is not agent
    assert clone.bs is not agent.bs and clone.P is agent.P  # frozen parts are shared


def test_equality_ignores_the_bookkeeping_fields():
    condition = frozenset({("in_campus", True)})
    assert FeedbackRecord(condition, (0.1, 0.2), 3) == FeedbackRecord(condition, (0.1, 0.2), 3, settled=(1,))
    assert "settled" not in repr(FeedbackRecord(condition))
    first, second = AgentConfig(id="a"), AgentConfig(id="a")
    second.mem_cursor, second.plan_version = 4, 2
    first.belief_texts()
    assert first == second
    second.cycle = 1
    assert first != second
    assert "mem_cursor" not in repr(first) and "_texts" not in repr(first)
