"""Core state types: initial configuration, belief-base semantics, norm
identities, and snapshot serialization."""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import nea
from nea.core import (
    MemKind,
    NormativeBelief,
    SOURCE_PERCEPT,
    SOURCE_SELF,
    StepLabel,
    AffectiveStepLabel,
    clamp_pair,
    norm_id,
    scalar_mood,
    snapshot,
)
from nea.cycle import agent_from_program
from nea.lang import Literal, TriggerType, parse_agent_program, render_literal, render_norm

from conftest import MASK_NORM_TEXT, PATROL_SOURCE, build_agent, parse_norm


def test_initial_configuration():
    agent = build_agent(PATROL_SOURCE)
    assert agent.s is StepLabel.Perceive
    assert agent.ast is AffectiveStepLabel.Appr
    assert agent.Ta.sigma == (0.0, 0.0)
    assert agent.cycle == 0
    assert agent.Mem == [] and agent.NB == []
    assert agent.roles == ("professor",)
    assert agent.P.rebelliousness == 0.3
    assert agent.bs and all(sources == {SOURCE_SELF} for sources in agent.bs.values())


def test_initial_goals_become_events():
    agent = build_agent("start.\n!warm_up.\n+!warm_up <- stretch.")
    goal_events = [e for e in agent.C.E if e.type is TriggerType.GOAL]
    assert len(goal_events) == 1
    assert goal_events[0].literal == Literal("warm_up")


def test_belief_base_is_source_keyed():
    agent = build_agent("x.")
    lit = Literal("y")
    assert agent.add_belief(lit, SOURCE_PERCEPT)
    assert not agent.add_belief(lit, SOURCE_PERCEPT), "same (literal, source) is a no-op"
    assert agent.add_belief(lit, SOURCE_SELF), "same literal, new source is a new belief"
    assert agent.holds(lit)
    assert agent.percept_literals() == {lit}

    assert agent.remove_belief(lit, SOURCE_PERCEPT)
    assert agent.holds(lit), "self-sourced copy remains"
    assert agent.remove_belief(lit)  # any source
    assert not agent.holds(lit)
    assert not agent.remove_belief(lit)


def belief_pairs(agent) -> set:
    """The (literal, source) pairs of ``bs``."""
    return {(lit, source) for lit, sources in agent.bs.items() for source in sources}


def test_belief_index_agrees_with_bs_for_two_sources():
    agent = build_agent("x.")
    lit = Literal("y")
    agent.add_belief(lit, SOURCE_SELF)
    agent.add_belief(lit, SOURCE_PERCEPT)
    assert agent.belief_texts() == ("x", "y")
    assert agent.bs == {Literal("x"): {SOURCE_SELF}, lit: {SOURCE_SELF, SOURCE_PERCEPT}}

    # a percept going away keeps the self copy
    assert agent.remove_belief(lit, SOURCE_PERCEPT)
    assert not agent.remove_belief(lit, SOURCE_PERCEPT), "already gone"
    assert agent.holds(lit)
    assert agent.belief_texts() == ("x", "y")
    assert agent.bs == {Literal("x"): {SOURCE_SELF}, lit: {SOURCE_SELF}}

    assert agent.remove_belief(lit, SOURCE_SELF)
    assert not agent.holds(lit)
    assert agent.belief_texts() == ("x",)
    assert agent.bs == {Literal("x"): {SOURCE_SELF}}


def test_belief_index_follows_random_updates():
    rng = random.Random(4)
    agent = build_agent("x.\ny.")
    reference = {(Literal("x"), SOURCE_SELF), (Literal("y"), SOURCE_SELF)}
    pool = [Literal("x"), Literal("y"), Literal("z", (1.0,)), Literal("z", (2.0,))]
    sources = [SOURCE_SELF, SOURCE_PERCEPT, "peer", None]
    for _ in range(2000):
        lit, source = rng.choice(pool), rng.choice(sources)
        if source is not None and rng.random() < 0.5:
            assert agent.add_belief(lit, source) is ((lit, source) not in reference)
            reference.add((lit, source))
        else:
            matched = {pair for pair in reference if pair[0] == lit and source in (None, pair[1])}
            assert agent.remove_belief(lit, source) is bool(matched)
            reference -= matched
        assert belief_pairs(agent) == reference
        assert all(agent.bs.values()), "no literal maps to an empty set"
        held = {pair[0] for pair in reference}
        assert agent.percept_literals() == {pair[0] for pair in reference if pair[1] == SOURCE_PERCEPT}
        texts = sorted(map(render_literal, held))
        assert agent.belief_texts() == tuple(texts)
        assert agent.belief_text_set() == frozenset(texts)
        for probe in pool:
            assert agent.holds(probe) is (probe in held)


def test_norm_id_is_stable_and_content_keyed():
    decl = parse_norm(MASK_NORM_TEXT)
    again = parse_norm(MASK_NORM_TEXT)
    other = parse_norm(
        'norm("obligation", "np__enter_classroom:role(professor) & not wearing_mask'
        ' <- +wearing_mask.", 0, 49.0, "ALL", [0.5,0.5])'
    )
    assert norm_id(decl) == norm_id(again)
    assert norm_id(decl) != norm_id(other)
    assert len(norm_id(decl)) == 12

    nb = NormativeBelief.from_decl(decl, norm_id(decl))
    assert nb.id == norm_id(decl)
    assert nb.deontic == "obligation"
    assert nb.relevance == 50.0


def test_norm_id_is_hashlib_sha1_without_loading_hashlib(corpus):
    decls = [decl for path in corpus for decl in parse_agent_program(path.read_text(encoding="utf-8")).norms]
    assert len(decls) >= 5
    for decl in decls:
        assert norm_id(decl) == hashlib.sha1(render_norm(decl).encode()).hexdigest()[:12]

    # the built-in sha1 spares every run OpenSSL's _hashlib at start-up
    src = str(Path(nea.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import nea.cli; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_intentions_get_unique_ids():
    agent = build_agent(PATROL_SOURCE)
    first = agent.new_intention(agent.ps[0])
    second = agent.new_intention(agent.ps[1])
    assert first.iid != second.iid
    assert first.plan is agent.ps[0]
    assert first.remaining == list(agent.ps[0].body) and first.remaining is not second.remaining


def test_scalar_mood_and_clamp():
    assert scalar_mood((0.4, -0.2)) == 0.1
    assert clamp_pair((1.7, -3.0)) == (1.0, -1.0)
    assert clamp_pair((0.2, 0.3)) == (0.2, 0.3)


def test_snapshot_covers_configuration_tuple():
    agent = build_agent(PATROL_SOURCE)
    decl = parse_norm(MASK_NORM_TEXT)
    agent.NB.append(NormativeBelief.from_decl(decl, norm_id(decl)))
    snap = snapshot(agent)
    assert snap["id"] == "a1"
    assert set(snap) == {"id", "ag", "C", "M", "T", "Mem", "Ta", "s", "ast", "cycle"}
    assert set(snap["ag"]) == {"bs", "ps", "cc", "P", "NB"}
    assert snap["ag"]["P"]["reb"] == 0.3
    assert snap["ag"]["NB"][0]["do"] == "obligation"
    assert snap["ag"]["NB"][0]["rel"] == 50.0
    assert snap["s"] == "Perceive"
    assert snap["ast"] == "Appr"
    assert snap["Ta"]["σ"] == [0.0, 0.0]

    text = json.dumps(snapshot(agent), ensure_ascii=False, sort_keys=True)
    assert json.loads(text) == json.loads(
        json.dumps(snapshot(agent), ensure_ascii=False, sort_keys=True)
    ), "snapshot text is stable"


def test_memory_event_kinds_cover_feedback_and_own_acts():
    values = {k.value for k in MemKind}
    assert {
        "norm-feedback-received",
        "own-compliance",
        "own-violation",
        "self-appraisal",
        "social-feedback",
    } == values


def test_roles_merge_without_duplicates():
    program = parse_agent_program(PATROL_SOURCE)
    agent = agent_from_program("p", program, roles=("professor", "tutor"))
    assert agent.roles == ("professor", "tutor")
