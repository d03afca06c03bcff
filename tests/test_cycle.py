"""Interpreter step machine: transition discipline (with fuzzing), message
routing, intention execution, the affective pass, and the decay pass."""

from __future__ import annotations

import copy
import json
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import nea.core
import nea.cycle
import nea.society
from nea import builtin_scenario
from nea.affect import accumulate_feedback, queue_belief_add
from nea.core import (
    MemKind,
    MemoryEvent,
    Message,
    SOURCE_PERCEPT,
    SOURCE_SELF,
    StepLabel,
    norm_id,
    snapshot,
)
from nea.cycle import (
    EDGES,
    EnvironmentView,
    InterpreterFault,
    OBSERVER_CHANNEL,
    QuietTick,
    TraceEntry,
    _adopt_norm,
    check_invariants,
    context_holds,
    expand,
    process_message,
    run_affective_cycle,
    run_decay,
    step,
    tick,
)
from nea.lang import (
    AgentProgram,
    BodyStep,
    Literal,
    NormDecl,
    PersonalityDecl,
    PlanDef,
    StepKind,
    Sym,
    TriggerType,
    parse_literal_text,
    parse_plan_text,
    render,
    render_feedback,
    render_literal,
    render_norm,
    render_trigger,
)
from nea.norms import BREAK, COMPLY
from nea.society import PerceptPulse, ScenarioConfig, Society, _text_line

from conftest import MASK_NORM_TEXT, PATROL_SOURCE, build_agent, parse_norm
from test_lang_roundtrip import _programs

MASK_NORM_MSG = (
    'norm("obligation", "np__enter_classroom : in_campus <- put_on(mask);'
    ' +wearing_mask.", 0, 4.0, ["professor"], [0.3,0.1])'
)


def make_env(**kw) -> EnvironmentView:
    return EnvironmentView(**kw)


def msg(content, sender="peer", norm=None, appraisal=None, mid=1):
    return Message(mid=mid, sender=sender, content=content, norm=norm, appraisal=appraisal)


def adopt_mask_norm(agent, env) -> str:
    """Deliver the mask norm by message and return its id."""
    agent.M.In.append(msg(MASK_NORM_MSG, sender="rectorate", mid=999))
    agent.s = StepLabel.ProcMsg
    step(agent, env)
    agent.s = StepLabel.Perceive
    agent.C.E.clear()  # drop the adoption event; tests drive their own events
    return agent.NB[0].id


def set_rebelliousness(agent, value: float) -> None:
    P = agent.P
    agent.P = PersonalityDecl(P.traits, P.rationality, P.coping, rebelliousness=value)


# ----------------------------------------------------------------------
# transition diagram


def test_edges_cover_all_labels():
    assert set(EDGES) == set(StepLabel)
    for successors in EDGES.values():
        assert successors


def test_edges_only_jump_forward_except_wraparound():
    rank = {label: i for i, label in enumerate(StepLabel)}
    for src, successors in EDGES.items():
        for dst in successors:
            if dst is StepLabel.Perceive:
                assert src is StepLabel.AffModB, "only AffModB wraps around"
            else:
                assert rank[dst] > rank[src], f"{src} -> {dst} goes backward"


#: The steps of the affective pass, in order.
AFFECTIVE_STEPS = ["Appr", "UpAs", "SelCs", "Cope"]


def test_affective_order():
    entries = run_affective_cycle(build_agent(PATROL_SOURCE), make_env())
    assert [e.step for e in entries] == AFFECTIVE_STEPS


def test_tick_rejects_non_perceive_start():
    agent = build_agent(PATROL_SOURCE)
    agent.s = StepLabel.SelEv
    with pytest.raises(InterpreterFault, match="start at Perceive"):
        tick(agent, make_env())


# ----------------------------------------------------------------------
# fuzzing: 10^4 steps stay on the diagram and keep every invariant


def fuzz_step_machine(total_steps: int, seed: int) -> int:
    rng = random.Random(seed)
    env = make_env(n_agents=3, relevance_threshold=3.0, delta=0.4, decay_affect=0.1, decay_relevance=0.01)
    agent = build_agent(PATROL_SOURCE)
    nid = adopt_mask_norm(agent, env)

    percept_pool = [Literal("enter_classroom"), Literal("exit_classroom"), Literal("bell")]
    taken = 0
    while taken < total_steps:
        if agent.s is StepLabel.Perceive:
            env.tick += 1
            env.percepts = set(rng.sample(percept_pool, k=rng.randint(0, 2)))
            if rng.random() < 0.4:
                roll = rng.random()
                if roll < 0.3:
                    agent.M.In.append(msg("visitor_on_site", mid=1000 + taken))
                elif roll < 0.5:
                    agent.M.In.append(
                        msg(
                            'norm_result("x","comply")',
                            norm=nid,
                            appraisal=(rng.uniform(-0.6, 0.6), rng.uniform(-0.2, 0.2)),
                            mid=1000 + taken,
                        )
                    )
                elif roll < 0.7:
                    agent.M.In.append(
                        msg("(+wearing_mask;+in_campus),[-0.3,-0.1]", mid=1000 + taken)
                    )
                elif roll < 0.85:
                    agent.M.In.append(msg("visitor_left", mid=1000 + taken))
                else:
                    agent.M.In.append(msg(MASK_NORM_MSG, mid=1000 + taken))
        before = agent.s
        entry = step(agent, env)
        assert agent.s in EDGES[before], f"{before} -> {agent.s}"
        assert entry.step == before.value
        check_invariants(agent, "fuzz")
        taken += 1
        # exercise the other two passes at the wrap-around point
        if agent.s is StepLabel.Perceive and rng.random() < 0.5:
            run_affective_cycle(agent, env)
            run_decay(agent, env)
            check_invariants(agent, "fuzz-passes")
            agent.M.Out = []
    return taken


def test_fuzz_transitions_and_invariants():
    assert fuzz_step_machine(10_000, seed=42) == 10_000


def _out_of_range(agent, env):
    agent.Ta.sigma = (1.5, 0.0)


def _negative_relevance(agent, env):
    decl = parse_norm(MASK_NORM_MSG)
    _adopt_norm(agent, decl, norm_id(decl))  # none when already held
    agent.NB[0].relevance = -0.1


def _unknown_norm_plan(agent, env):
    p = agent.ps[0]
    agent.ps.append(PlanDef(p.trigger, p.context, p.body, p.label, p.normative, norm_id="ghost", variant=p.variant))


def _foreign_applicable(agent, env):
    agent.T.R = [agent.ps[0]]
    agent.T.Ap = [agent.ps[1]]


def _duplicate_mids(agent, env):
    agent.M.In = [msg("a", mid=3), msg("b", mid=4), msg("c", mid=3)]


def _memory_out_of_order(agent, env):
    agent.Mem += [
        MemoryEvent(tick=5, kind=MemKind.SELF_APPRAISAL, pair=(0.1, 0.1)),
        MemoryEvent(tick=4, kind=MemKind.SELF_APPRAISAL, pair=(0.1, 0.1)),
    ]
    agent.mem_cursor = len(agent.Mem)  # already appraised: the agent stays quiet


#: One breach per invariant of ``check_invariants``, with its fault reason.
BREACHES = [
    (_out_of_range, "affective state out of range"),
    (_negative_relevance, "negative relevance"),
    (_unknown_norm_plan, "plan references unknown norm ghost"),
    (_foreign_applicable, "applicable plans not drawn from relevant plans"),
    (_duplicate_mids, "duplicate message ids"),
    (_memory_out_of_order, "memory ticks not monotone"),
]


@pytest.mark.parametrize("at", [StepLabel.SelEv, "SelEv"], ids=["label", "str"])
@pytest.mark.parametrize(
    "breach, reason", BREACHES, ids=[fn.__name__.strip("_") for fn, _ in BREACHES]
)
def test_each_invariant_names_the_step(breach, reason, at):
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=3, relevance_threshold=3.0)
    # a healthy agent with a norm, its plans, mail and memory passes
    adopt_mask_norm(agent, env)
    agent.M.In = [msg("a", mid=3), msg("b", mid=4), msg("c", mid=-1), msg("d", mid=-1)]
    agent.Mem.append(MemoryEvent(tick=4, kind=MemKind.SELF_APPRAISAL, pair=(0.1, 0.1)))
    check_invariants(agent, at)

    breach(agent, env)
    with pytest.raises(InterpreterFault, match=reason) as caught:
        check_invariants(agent, at)
    assert caught.value.step == "SelEv"
    assert caught.value.agent_id == agent.id
    assert str(caught.value).startswith(f"[{agent.id} @ SelEv] ")


def _plan_naming_the_second_norm(agent, second):
    p = agent.ps[0]
    agent.ps.append(PlanDef(p.trigger, p.context, p.body, p.label, p.normative, norm_id=second, variant=p.variant))


def _negative_second_norm_and_unknown_plan(agent, second):
    agent.NB[1].relevance = -0.1
    _unknown_norm_plan(agent, None)


@pytest.mark.parametrize(
    "breach, reason",
    [(_plan_naming_the_second_norm, None), (_negative_second_norm_and_unknown_plan, "negative relevance on {}")],
    ids=["second-norm-plan", "relevance-before-plans"],
)
def test_invariants_over_two_norms(breach, reason):
    """Every held norm's id is known to the plan check, and the relevance
    check still faults before it."""
    agent = build_agent(PATROL_SOURCE)
    adopt_mask_norm(agent, make_env(n_agents=3))
    decl = parse_norm(MASK_NORM_TEXT)
    second = _adopt_norm(agent, decl, norm_id(decl))
    assert [nb.id for nb in agent.NB][1] == second
    check_invariants(agent, "SelEv")

    breach(agent, second)
    if reason is None:
        check_invariants(agent, "SelEv")
        return
    with pytest.raises(InterpreterFault, match=reason.format(second)) as caught:
        check_invariants(agent, "SelEv")
    assert caught.value.step == "SelEv"


# ----------------------------------------------------------------------
# Perceive


def test_perceive_buffers_percept_changes_until_affmodb():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(percepts={Literal("enter_classroom")})
    step(agent, env)  # Perceive
    assert agent.s is StepLabel.ProcMsg
    assert not agent.holds(Literal("enter_classroom")), "buffered until AffModB"
    agent.s = StepLabel.AffModB
    step(agent, env)
    assert agent.holds(Literal("enter_classroom"))
    assert agent.C.E[-1].literal == Literal("enter_classroom")

    # the percept disappears next tick -> deletion queued, applied at AffModB
    env.percepts = set()
    step(agent, env)  # Perceive (s wrapped around)
    agent.s = StepLabel.AffModB
    step(agent, env)
    assert not agent.holds(Literal("enter_classroom"))


def test_perceive_adopts_norm_percepts_inline():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(percepts={parse_literal_text(MASK_NORM_MSG)})
    entry = step(agent, env)
    assert len(agent.NB) == 1
    assert agent.NB[0].id == norm_id(parse_norm(MASK_NORM_MSG))
    assert len(agent.ps) == 4, "comply and break variants appended"
    assert "adopted" in entry.summary


def test_perceive_faults_on_malformed_norm_percept():
    agent = build_agent(PATROL_SOURCE)
    bad = 'norm("permission", "np__x <- +y.", 0, 50.0, "ALL", [0.5,0.5])'
    env = make_env(percepts={parse_literal_text(bad)})
    with pytest.raises(InterpreterFault, match="bad norm percept"):
        step(agent, env)


# ----------------------------------------------------------------------
# ProcMsg routing


def test_procmsg_idle_advances():
    agent = build_agent(PATROL_SOURCE)
    agent.s = StepLabel.ProcMsg
    entry = step(agent, make_env())
    assert entry.summary == "idle"
    assert agent.s is StepLabel.SelEv


def test_plain_tell_adds_sender_sourced_belief():
    agent = build_agent(PATROL_SOURCE)
    summary, nxt, _ = process_message(agent, msg("visitor_on_site", sender="gate"), make_env())
    assert nxt is StepLabel.SelEv
    assert agent.holds(Literal("visitor_on_site"))
    assert agent.bs[Literal("visitor_on_site")] == {"gate"}
    assert agent.C.E[-1].literal == Literal("visitor_on_site")


def test_norm_tell_adopts_and_believes():
    agent = build_agent(PATROL_SOURCE)
    env = make_env()
    summary, nxt, payload = process_message(agent, msg(MASK_NORM_MSG, sender="rectorate"), env)
    assert nxt is StepLabel.SelEv
    assert len(agent.NB) == 1 and len(agent.ps) == 4
    assert payload["adopted"] == agent.NB[0].id
    assert agent.holds(parse_literal_text(MASK_NORM_MSG)), "the norm text is also believed"
    # a second adoption is a no-op
    summary, _, payload = process_message(agent, msg(MASK_NORM_MSG, sender="rectorate"), env)
    assert "already held" in summary
    assert payload["adopted"] is None
    assert len(agent.NB) == 1 and len(agent.ps) == 4


def test_norm_feedback_reinforces_and_shifts_sigma():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=1, delta=0.1)
    nid = adopt_mask_norm(agent, env)
    agent.NB[0].relevance = 50.0
    reply = msg('norm_result("x","comply")', norm=nid, appraisal=(0.1, 0.1))
    summary, nxt, payload = process_message(agent, reply, env)
    assert nxt is StepLabel.AffModB, "norm feedback shortcuts to AffModB"
    assert agent.NB[0].relevance == 50.1
    assert agent.Ta.sigma == (0.1, 0.1)
    mem = agent.Mem[-1]
    assert mem.kind is MemKind.NORM_FEEDBACK and mem.norm_id == nid


def test_norm_feedback_divides_by_society_size():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=4, delta=0.1)
    nid = adopt_mask_norm(agent, env)
    agent.NB[0].relevance = 50.0
    process_message(agent, msg("x", norm=nid, appraisal=(0.2, 0.4)), env)
    assert agent.NB[0].relevance == 50.0 + 0.1 / 4
    assert agent.Ta.sigma == (0.2 / 4, 0.4 / 4)


def test_norm_feedback_for_unknown_norm_is_ignored():
    agent = build_agent(PATROL_SOURCE)
    summary, nxt, _ = process_message(agent, msg("x", norm="deadbeef0000"), make_env())
    assert "unknown" in summary
    assert nxt is StepLabel.SelEv
    assert agent.Mem == []


def test_social_feedback_accumulates():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=4)
    text = "(+wearing_mask;+in_campus),[-0.3,-0.1]"
    summary, nxt, payload = process_message(agent, msg(text, sender="student"), env)
    assert nxt is StepLabel.SelEv
    assert payload["count"] == 1 and payload["accumulated"] == [-0.3, -0.1]
    assert agent.Ta.sigma == (-0.3 / 4, -0.1 / 4)
    assert agent.Mem[-1].kind is MemKind.SOCIAL_FEEDBACK
    process_message(agent, msg(text, sender="student2"), env)
    record = next(iter(agent.feedback.values()))
    assert record.count == 2
    assert record.condition == frozenset({("wearing_mask", True), ("in_campus", True)})


def test_malformed_content_faults():
    agent = build_agent(PATROL_SOURCE)
    with pytest.raises(InterpreterFault, match="bad message content"):
        process_message(agent, msg("??!"), make_env())


@pytest.mark.parametrize(
    "content",
    [
        'norm(obligation, "+x <- y.", 0, 1, "ALL", [0.1,0.1])',  # no np__ marker
        'norm(obligation, "np__ +x <- y.", 0, 1)',  # four arguments
        'norm(allowed, "np__ +x <- y.", 0, 1, "ALL", [0.1,0.1])',  # unknown operator
    ],
)
def test_malformed_norm_message_faults(content):
    agent = build_agent(PATROL_SOURCE)
    beliefs = {lit: set(sources) for lit, sources in agent.bs.items()}
    norms = list(agent.NB)
    with pytest.raises(InterpreterFault, match=r"@ ProcMsg\] bad norm message") as info:
        process_message(agent, msg(content), make_env())
    assert info.value.step == "ProcMsg"
    assert agent.bs == beliefs and agent.NB == norms


def test_agents_adopting_one_norm_share_its_plan():
    first, second = build_agent(PATROL_SOURCE, "a1"), build_agent(PATROL_SOURCE, "a2")
    env = make_env()  # one run's view
    for agent in (first, second):
        process_message(agent, msg(MASK_NORM_MSG, sender="rectorate"), env)
    assert first.NB[0].id == second.NB[0].id
    assert first.NB[0].plan is second.NB[0].plan  # one parse of the plan text
    bad = 'norm(obligation, "np__ +x <- ", 0, 1, "ALL", [0.1,0.1])'  # the plan does not parse
    for agent in (first, second):
        with pytest.raises(InterpreterFault, match="embedded normative plan does not parse"):
            process_message(agent, msg(bad), env)


def test_agents_adopting_one_norm_render_it_once(monkeypatch):
    renders = []
    render_norm = nea.core.render_norm
    monkeypatch.setattr(nea.core, "render_norm", lambda decl: renders.append(decl) or render_norm(decl))
    first, second = build_agent(PATROL_SOURCE, "a1"), build_agent(PATROL_SOURCE, "a2")
    env = make_env()  # one run's view
    for agent in (first, second):
        process_message(agent, msg(MASK_NORM_MSG, sender="rectorate"), env)
    assert len(renders) == 1  # one validation and one id for both agents
    assert first.NB[0].id == second.NB[0].id == norm_id(parse_norm(MASK_NORM_MSG))
    assert first.NB[0] is not second.NB[0]
    first.NB[0].relevance += 5.0
    assert second.NB[0].relevance == parse_norm(MASK_NORM_MSG).relevance


def test_equal_norm_literals_that_render_apart_keep_their_ids():
    texts = [MASK_NORM_MSG.replace("[0.3,0.1]", pa) for pa in ("[0.0,0.1]", "[-0.0,0.1]")]
    assert parse_literal_text(texts[0]) == parse_literal_text(texts[1])
    env = make_env()  # one run's view, whose norm table is keyed by text
    for i, text in enumerate(texts):
        agent = build_agent(PATROL_SOURCE, f"a{i}")
        process_message(agent, msg(text), env)
        assert agent.NB[0].id == norm_id(parse_norm(text))
    assert norm_id(parse_norm(texts[0])) != norm_id(parse_norm(texts[1]))


# ----------------------------------------------------------------------
# norms__ entries: adopted when the agent is built


def normed(source: str, *norms: str) -> str:
    return source + "\nnorms__: { " + " ".join(f"{text}." for text in norms) + " }.\n"


def test_declared_norm_is_adopted_like_a_perceived_one():
    """A ``norms__`` norm and the same norm perceived at tick 0 give the
    same plans and normative beliefs from tick 1 on, and the same SelAppl
    decisions once ``enter_classroom`` is perceived at tick 1."""
    config = ScenarioConfig.from_dict(
        {
            "ticks": 6,
            "agents": [
                {"id": "declared", "program": normed(PATROL_SOURCE, MASK_NORM_TEXT)},
                {"id": "perceived", "program": PATROL_SOURCE},
            ],
            "percepts": [
                {"agents": ["perceived"], "literal": MASK_NORM_TEXT, "at": 0},
                {"agents": ["declared", "perceived"], "literal": "enter_classroom", "at": 1},
            ],
        }
    )
    society = Society(config)
    declared, perceived = society.roster["declared"], society.roster["perceived"]
    assert len(declared.ps) == 4 and declared.plan_version == 1
    selappl = []
    for t in range(config.ticks):
        items, _ = society.run_tick(t)
        if t >= 1:
            assert declared.ps == perceived.ps and declared.NB == perceived.NB
        if t >= 2:
            summaries = {e.agent: e.summary for e in expand(items) if e.step == "SelAppl"}
            assert summaries["declared"] == summaries["perceived"]
            selappl.append(summaries["declared"])
    assert selappl[0] == "+enter_classroom [comply]"


def test_declared_norm_perceived_again_is_already_held():
    agent = build_agent(normed(PATROL_SOURCE, MASK_NORM_TEXT))
    entry = step(agent, make_env(percepts={parse_literal_text(MASK_NORM_TEXT)}))
    assert entry.payload["adopted"] == [] and len(agent.ps) == 4 and len(agent.NB) == 1


def test_norm_declared_twice_is_held_once():
    agent = build_agent(normed(PATROL_SOURCE, MASK_NORM_TEXT, MASK_NORM_MSG, MASK_NORM_TEXT))
    assert [nb.id for nb in agent.NB] == [norm_id(parse_norm(text)) for text in (MASK_NORM_TEXT, MASK_NORM_MSG)]
    assert len(agent.ps) == 2 + 2 * 2 and agent.plan_version == 2
    assert not agent.bs.keys() - {Literal("in_campus")}, "adoption adds no belief"


def test_equal_declared_norms_that_render_apart_keep_their_ids():
    texts = [MASK_NORM_TEXT.replace("[0.5,0.5]", pa) for pa in ("[0.0,0.5]", "[-0.0,0.5]")]
    assert parse_norm(texts[0]) == parse_norm(texts[1])
    agents = [build_agent(normed(PATROL_SOURCE, text)) for text in texts]
    assert [agent.NB[0].id for agent in agents] == [norm_id(parse_norm(text)) for text in texts]
    assert agents[0].NB[0].id != agents[1].NB[0].id


# ----------------------------------------------------------------------
# context evaluation


def test_context_holds_roles_and_negation():
    agent = build_agent(PATROL_SOURCE)  # roles: professor; believes in_campus
    ctx = parse_plan_text("+x : role(professor) & in_campus & not wearing_mask <- y.").context
    assert context_holds(agent, ctx)
    agent.add_belief(Literal("wearing_mask"), "self")
    assert not context_holds(agent, ctx)
    ctx_bad_role = parse_plan_text("+x : role(student) <- y.").context
    assert not context_holds(agent, ctx_bad_role)
    assert context_holds(agent, ())


# ----------------------------------------------------------------------
# full ticks: one body step at a time, comply/break decisions, attribution


def test_patrol_executes_one_body_step_per_tick():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(percepts={Literal("enter_classroom")})
    entries, outbound = tick(agent, env)  # percept lands at AffModB
    assert outbound == []
    env.tick += 1
    entries, _ = tick(agent, env)  # event selected, first body step runs
    first = [e for e in entries if e.step == "ExecInt"]
    assert [e.summary for e in first] == ["-in_campus"]
    env.tick += 1
    entries, _ = tick(agent, env)  # second body step, one tick later
    second = [e for e in entries if e.step == "ExecInt"]
    assert [e.summary for e in second] == ["+in_classroom"]
    assert agent.holds(Literal("in_classroom"))
    assert not agent.holds(Literal("in_campus"))


def run_until_announcement(agent, env, limit=12):
    announced = []
    decisions = {}
    for _ in range(limit):
        entries, outbound = tick(agent, env)
        env.tick += 1
        for e in entries:
            if e.step == "SelAppl" and e.payload.get("decisions"):
                decisions.update(e.payload["decisions"])
        announced.extend(m for m in outbound if m.recipient == OBSERVER_CHANNEL)
        if announced:
            break
    return announced, decisions


def test_comply_variant_selected_and_announced():
    env = make_env(n_agents=5, fraction=lambda roles: 0.4, relevance_threshold=3.0, relevance_weight=0.0125)
    agent = build_agent(PATROL_SOURCE)
    set_rebelliousness(agent, 0.2)
    nid = adopt_mask_norm(agent, env)

    env.percepts = {Literal("enter_classroom")}
    tick(agent, env)
    env.percepts = set()
    env.tick += 1

    announced, decisions = run_until_announcement(agent, env)
    assert decisions[nid]["chosen"] == COMPLY
    assert decisions[nid]["comply"] > decisions[nid]["break"]
    assert len(announced) == 1, "the variant's own affect step announces exactly once"
    assert announced[0].norm == nid
    assert f'"{COMPLY}"' in announced[0].content
    assert announced[0].sender == agent.id
    assert Literal("put_on", (Sym("mask"),)) in agent.C.A
    assert agent.holds(Literal("wearing_mask"))
    assert agent.Ta.sigma[0] > 0, "pre-appraisal folded into the affective state"
    assert MemKind.OWN_COMPLIANCE in {m.kind for m in agent.Mem}


def test_rebel_breaks_and_announces_break():
    env = make_env(n_agents=5, fraction=lambda roles: 0.4, relevance_threshold=3.0, relevance_weight=0.0125)
    agent = build_agent(PATROL_SOURCE)
    set_rebelliousness(agent, 0.8)
    nid = adopt_mask_norm(agent, env)

    env.percepts = {Literal("enter_classroom")}
    tick(agent, env)
    env.percepts = set()
    env.tick += 1

    announced, decisions = run_until_announcement(agent, env)
    assert decisions[nid]["chosen"] == BREAK
    assert len(announced) == 1
    assert f'"{BREAK}"' in announced[0].content
    assert Literal("put_on", (Sym("mask"),)) not in agent.C.A
    assert not agent.holds(Literal("wearing_mask"))
    assert agent.Ta.sigma[0] < 0, "violation appraisal is the opposite emotion"
    assert MemKind.OWN_VIOLATION in {m.kind for m in agent.Mem}


def test_cross_norm_attribution_fires_for_other_norms():
    env = make_env(relevance_threshold=1.0)
    agent = build_agent("ready.\n\n+do_it : ready <- sing.")
    ban = parse_norm(
        'norm("prohibition", "np__party : ready <- sing.", 0, 30.0, "ALL", [0.2,0.1])'
    )
    _adopt_norm(agent, ban, norm_id(ban))
    nid = agent.NB[0].id

    agent.M.In.append(msg("do_it", sender="peer"))
    announced, _ = run_until_announcement(agent, env, limit=6)
    assert announced and announced[0].norm == nid
    assert f'"{BREAK}"' in announced[0].content, "acting a prohibited step is a violation"
    assert Literal("sing") in agent.C.A
    assert MemKind.OWN_VIOLATION in {m.kind for m in agent.Mem}


def test_own_affect_step_files_as_self_appraisal():
    agent = build_agent("calm.\n\n!go.\n\n+!go <- affect(0.2, 0.1).")
    env = make_env()
    tick(agent, env)  # goal event was seeded at build time
    kinds = {m.kind for m in agent.Mem}
    assert MemKind.SELF_APPRAISAL in kinds
    assert MemKind.OWN_COMPLIANCE not in kinds and MemKind.OWN_VIOLATION not in kinds
    assert agent.Ta.sigma[0] > 0


def test_tick_drains_outbound():
    agent = build_agent("standby.\n\n+hail <- .sendMsg(ALL, greetings).")
    env = make_env()
    agent.M.In.append(msg("hail", sender="peer"))
    sent = []
    for _ in range(3):
        _, outbound = tick(agent, env)
        env.tick += 1
        sent.extend(outbound)
        assert agent.M.Out == [], "outbox drained every tick"
    assert any(m.content == "greetings" and m.recipient == "ALL" for m in sent)


# ----------------------------------------------------------------------
# affective pass


def test_affective_pass_applies_unapplied_memory_once():
    agent = build_agent(PATROL_SOURCE)
    env = make_env()
    agent.Mem.append(MemoryEvent(tick=0, kind=MemKind.SELF_APPRAISAL, pair=(0.2, 0.1)))
    entries = run_affective_cycle(agent, env)
    assert [e.step for e in entries] == AFFECTIVE_STEPS
    assert agent.Ta.sigma == (0.2, 0.1)
    assert agent.mem_cursor == 1
    # a second pass must not double-apply
    run_affective_cycle(agent, env)
    assert agent.Ta.sigma == (0.2, 0.1)


def test_tick_appraises_only_fresh_entries_with_a_nonzero_pair():
    agent = build_agent(PATROL_SOURCE)
    agent.Mem.append(MemoryEvent(tick=0, kind=MemKind.SOCIAL_FEEDBACK, pair=(0.0, 0.0)))
    agent.Mem.append(MemoryEvent(tick=0, kind=MemKind.SELF_APPRAISAL, pair=(0.2, 0.1)))
    entries, _ = tick(agent, make_env())
    assert [e.summary for e in entries if e.step == "Appr"] == ["1/2 appraised"]


def test_affective_pass_revises_punished_plans():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(deviation_threshold=(0.5, 0.5))
    agent.add_belief(Literal("wearing_mask"), SOURCE_PERCEPT)
    accumulate_feedback(
        agent.feedback,
        frozenset({("wearing_mask", True), ("in_campus", True)}),
        (-0.6, -0.2),
    )
    exit_before = agent.ps[1]
    entries = run_affective_cycle(agent, env)
    selcs = next(e for e in entries if e.step == "SelCs")
    assert selcs.payload["revised"], "punished exit plan rewritten"
    revised = agent.ps[1]
    assert revised != exit_before
    deletions = [s.literal.functor for s in revised.body if s.kind is StepKind.DEL]
    assert "wearing_mask" in deletions
    # the rewrite is stable: a second pass finds nothing left to revise
    entries = run_affective_cycle(agent, env)
    selcs = next(e for e in entries if e.step == "SelCs")
    assert not selcs.payload["revised"]


def test_coping_strategies_queue_intentions():
    source = """\
gloomy.

personality__: { [0.5,0.5,0.5,0.5,0.5], 0.9,
  [cope([-1.0,-0.2],[-1.0,1.0],[take_break])], 0.0 }.
"""
    agent = build_agent(source)
    env = make_env()
    agent.Ta.sigma = (-0.5, 0.0)
    entries = run_affective_cycle(agent, env)
    cope_entry = next(e for e in entries if e.step == "Cope")
    assert "1 coping intention" in cope_entry.summary
    assert len(agent.C.I) == 1
    assert [s.literal.functor for s in agent.C.I[0].remaining] == ["take_break"]


def test_coping_queue_holds_one_pending_intention_per_action():
    source = """\
gloomy.

personality__: { [0.5,0.5,0.5,0.5,0.5], 0.9,
  [cope([-1.0,-0.2],[-1.0,1.0],[take_break, call_friend]),
   cope([-1.0,0.0],[-1.0,1.0],[call_friend, walk]),
   cope([-0.8,-0.4],[-0.5,0.5],[take_break])], 0.0 }.
"""
    agent = build_agent(source)
    sizes = []
    for t in range(200):
        agent.Ta.sigma = (-0.5, 0.0)  # inside all three ranges on every tick
        tick(agent, make_env(tick=t))
        sizes.append(len(agent.C.I))
        pending = [i.remaining[0].literal.functor for i in agent.C.I if i.remaining]
        assert len(pending) == len(set(pending)), f"tick {t}: {pending}"
    assert max(sizes) <= 3, "at most one pending coping intention per distinct action"
    done = Counter(a.functor for a in agent.C.A)
    assert set(done) == {"take_break", "call_friend", "walk"}
    assert min(done.values()) >= 50, "every action is re-queued once it has run"


# ----------------------------------------------------------------------
# decay pass


def test_decay_pass_payload_and_effects():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(decay_affect=0.5, decay_relevance=0.25)
    nid = adopt_mask_norm(agent, env)
    agent.Ta.sigma = (0.8, -0.4)
    rel0 = agent.NB[0].relevance
    entry = run_decay(agent, env)
    assert agent.Ta.sigma == (0.4, -0.2)
    assert agent.NB[0].relevance == rel0 - 0.25
    assert entry.step == "AsNrDecay"
    assert entry.payload["sigma"] == [0.4, -0.2]
    assert entry.payload["relevance"] == {nid: rel0 - 0.25}
    assert "in_campus" in entry.payload["beliefs"]
    assert entry.payload["feedback"] == {}


def test_decay_skips_norms_reinforced_this_tick():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=1, decay_relevance=0.25)
    nid = adopt_mask_norm(agent, env)
    rel0 = agent.NB[0].relevance
    process_message(agent, msg("x", norm=nid, appraisal=(0.0, 0.0)), env)
    run_decay(agent, env)
    assert agent.NB[0].relevance == rel0 + 0.1, "same-tick reinforcement blocks decay"
    env.tick += 1
    run_decay(agent, env)
    assert agent.NB[0].relevance == rel0 + 0.1 - 0.25


# ----------------------------------------------------------------------
# quiet ticks: the shortcut must do and emit exactly what the walk does


def _lines(items) -> list[str]:
    return [_text_line(e) + "|" + json.dumps(e.payload, sort_keys=True) for e in expand(items)]


def _state(agent) -> tuple:
    feedback = {key: (rec.accumulated, rec.count) for key, rec in agent.feedback.items()}
    return snapshot(agent), agent.mem_cursor, feedback


def full_passes(forced) -> None:
    """Turn the quiet shortcut off, and never let a feedback record count as
    settled, so every tick walks the step machine and runs the full
    affective pass with every detection."""
    forced.setattr(nea.cycle, "_quiet", lambda agent, env: False)
    forced.setattr(nea.cycle, "_feedback_stamp", lambda *args: object())


def check_against_full_passes(mp) -> Counter:
    """Make the society tick a deep copy of each agent beside it with
    ``full_passes`` and no cached belief texts; every agent-tick must emit
    the same entries and outbound mail and leave the same state.  The
    counter gets the agent-ticks ("ticks") and how many took the quiet
    shortcut ("quiet")."""
    real_tick = nea.cycle.tick
    quiet = Counter()

    def checked_tick(agent, env):
        reference = copy.deepcopy(agent)
        reference._texts = None  # the reference rebuilds the belief-text cache
        with pytest.MonkeyPatch.context() as forced:
            full_passes(forced)
            want_entries, want_out = real_tick(reference, env)
        entries, outbound = real_tick(agent, env)
        quiet["ticks"] += 1
        quiet["quiet"] += isinstance(entries[0], QuietTick)
        assert _lines(entries) == _lines(want_entries)
        assert outbound == want_out
        assert _state(agent) == _state(reference)
        return entries, outbound

    mp.setattr(nea.society, "agent_tick", checked_tick)
    return quiet


def run_against_full_walk(society: Society, ticks: int, monkeypatch) -> Counter:
    """Run *society* under ``check_against_full_passes``."""
    quiet = check_against_full_passes(monkeypatch)
    society.run(ticks=ticks)
    return quiet


def crowd_config() -> ScenarioConfig:
    """The mask campus with six more students (two of them observers) and a
    third professor on a later patrol."""
    path = builtin_scenario("mask")
    spec = json.loads(path.read_text(encoding="utf-8"))
    spec["agents"] += [{"id": f"student_{i}", "program": "student.nea"} for i in range(6)]
    spec["agents"].append({"id": "prof_late", "program": "professor_conformist.nea"})
    spec["percepts"] += [
        {"agents": ["prof_late"], "literal": "enter_classroom", "at": 10},
        {"agents": ["prof_late"], "literal": "exit_classroom", "from": 20, "period": 24},
    ]
    spec["observation"]["feedback"]["observers"] += ["student_0", "student_1"]
    spec["params"]["delta"] = 2.0 * len(spec["agents"]) / 5
    return ScenarioConfig.from_dict(spec, base=path.parent)


@pytest.mark.parametrize(
    "config, ticks",
    [
        (lambda: ScenarioConfig.load(builtin_scenario("mask")), 300),
        (crowd_config, 120),
    ],
    ids=["mask", "crowd"],
)
def test_quiet_ticks_equal_the_full_walk(monkeypatch, config, ticks):
    society = Society(config(), seed=7)
    quiet = run_against_full_walk(society, ticks, monkeypatch)
    assert quiet["ticks"] == ticks * len(society.roster)
    assert quiet["ticks"] > quiet["quiet"] > quiet["ticks"] / 2, "both the shortcut and the passes are exercised"


def test_quiet_tick_emits_fresh_entries_without_stepping(monkeypatch):
    agent = build_agent(PATROL_SOURCE)
    env = make_env()
    monkeypatch.setattr(nea.cycle, "step", None)  # a quiet tick must not call it
    first = expand(tick(agent, env)[0])
    second = expand(tick(agent, env)[0])
    assert [e.step for e in first[:11]] == [label.value for label in StepLabel]
    assert [e.summary for e in first[1:10]] == ["idle"] * 9
    assert agent.s is StepLabel.Perceive
    for a, b in zip(first, second):
        assert a.payload == b.payload
        assert a.payload is not b.payload
        assert all(x is not y for x, y in zip(a.payload.values(), b.payload.values()))


#: Every step of an agent-tick, in order, when the walk takes no shortcut.
TICK_STEPS = [label.value for label in StepLabel] + AFFECTIVE_STEPS + ["AsNrDecay"]


def test_fully_quiet_tick_is_one_record(monkeypatch):
    agent = build_agent(PATROL_SOURCE)
    env = make_env(tick=3)
    agent.Ta.sigma = (-0.25, 0.5)
    monkeypatch.setattr(nea.cycle, "step", None)  # a fully quiet tick calls neither
    monkeypatch.setattr(nea.cycle, "run_affective_cycle", None)
    items, outbound = tick(agent, env)
    assert [type(item) for item in items] == [QuietTick]
    record = items[0]
    assert (record.tick, record.agent, record.upas) == (3, "a1", "0 applied, sigma [-0.250,0.500]")
    assert record.decay.step == "AsNrDecay" and record.decay.payload["sigma"] == list(agent.Ta.sigma)
    assert [e.step for e in record.entries()] == TICK_STEPS
    assert record.entries()[-1] is record.decay
    assert outbound == [] and agent.s is StepLabel.Perceive


def test_half_quiet_tick_emits_sixteen_entries(monkeypatch):
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=1)
    agent.Mem.append(MemoryEvent(tick=0, kind=MemKind.SELF_APPRAISAL, pair=(0.4, 0.2)))
    assert not nea.cycle._quiet(agent, env)  # fresh memory alone: the agent walks
    entries, _ = tick(agent, env)
    assert all(type(e) is TraceEntry for e in entries)
    assert [e.step for e in entries] == TICK_STEPS
    assert [e.summary for e in entries[11:13]] == ["1/1 appraised", "1 applied, sigma [0.400,0.200]"]


#: Breaches that leave the agent quiet, and one that makes it walk; either
#: way the tick's first invariant check names Perceive.
QUIET_BREACHES = [
    (_out_of_range, "affective state out of range", True),
    (_negative_relevance, "negative relevance", True),
    (_unknown_norm_plan, "plan references unknown norm ghost", True),
    (_memory_out_of_order, "memory ticks not monotone", True),
    (_duplicate_mids, "duplicate message ids", False),
]


@pytest.mark.parametrize(
    "breach, reason, quiet",
    QUIET_BREACHES,
    ids=[fn.__name__.strip("_") for fn, _, _ in QUIET_BREACHES],
)
def test_tick_faults_name_perceive(breach, reason, quiet):
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=3)
    breach(agent, env)
    assert nea.cycle._quiet(agent, env) is quiet
    with pytest.raises(InterpreterFault, match=reason) as caught:
        tick(agent, env)
    assert caught.value.step == "Perceive"


def test_memory_appended_between_ticks_is_appraised_once():
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=1, decay_affect=0.0)

    def appraisal_summary() -> str:
        entries = expand(tick(agent, env)[0])
        return next(e.summary for e in entries if e.step == "Appr")

    assert appraisal_summary() == "0/0 appraised"
    agent.Mem.append(MemoryEvent(tick=0, kind=MemKind.SELF_APPRAISAL, pair=(0.4, 0.2)))
    assert appraisal_summary() == "1/1 appraised"
    assert agent.mem_cursor == 1
    assert agent.Ta.sigma == (0.4, 0.2)
    assert appraisal_summary() == "0/0 appraised"
    assert agent.Ta.sigma == (0.4, 0.2), "applied once"
    assert agent.mem_cursor == len(agent.Mem) == 1


def test_pending_belief_update_makes_the_agent_walk():
    agent = build_agent(PATROL_SOURCE)
    queue_belief_add(agent, Literal("greeted"), SOURCE_SELF)
    entries, _ = tick(agent, make_env())
    assert agent.holds(Literal("greeted"))
    assert entries[10].step == "AffModB" and entries[10].summary == "+1/-0 beliefs"


# ----------------------------------------------------------------------
# settled feedback records


#: Literals the mask programs believe, act on or are judged by.
MASK_TEXTS = ("wearing_mask", "in_campus", "in_classroom", "enjoy_freetime", "enter_classroom", "exit_classroom")
MASK_IDS = ("rectorate", "prof_conformist", "prof_rebel", "student_a", "student_b")
#: A second norm: its comply and break plans join the library on adoption.
EXIT_NORM_MSG = (
    'norm("obligation", "np__exit_classroom : in_classroom <- take_off(mask); -wearing_mask.",'
    ' 0, 4.0, ["professor"], [0.2,0.1])'
)
#: Feedback pairs below, at and past the (0.5, 0.5) deviation threshold
#: once accumulated, and a positive one.
FEEDBACK_PAIRS = ((-0.6, -0.2), (-0.3, -0.1), (-0.1, -0.6), (0.4, 0.1))
PROPERTY_TICKS = 48

_feedback_events = st.tuples(
    st.integers(0, PROPERTY_TICKS - 1),
    st.sampled_from(MASK_IDS),
    st.lists(
        st.tuples(st.sampled_from(MASK_TEXTS), st.booleans()), min_size=1, max_size=3, unique_by=lambda c: c[0]
    ),
    st.sampled_from(FEEDBACK_PAIRS),
)
_percept_flips = st.tuples(
    st.integers(0, PROPERTY_TICKS - 1), st.sampled_from(MASK_IDS), st.sampled_from(MASK_TEXTS)
)


@settings(max_examples=15, deadline=None)
@given(
    feedback=st.lists(_feedback_events, max_size=10),
    flips=st.lists(_percept_flips, max_size=8),
    norm_at=st.integers(1, PROPERTY_TICKS - 1),
    norm_to=st.sampled_from(MASK_IDS),
)
def test_random_feedback_and_percepts_equal_the_full_passes(feedback, flips, norm_at, norm_to):
    config = ScenarioConfig.load(builtin_scenario("mask"))
    config.pulses += [PerceptPulse((aid,), Literal(text), at=t) for t, aid, text in flips]
    society = Society(config, seed=7)
    mail = defaultdict(list)
    for t, aid, condition, pair in feedback:
        mail[t].append((aid, msg(render_feedback(condition, pair))))
    mail[norm_at].append((norm_to, msg(EXIT_NORM_MSG, sender="rectorate")))
    with pytest.MonkeyPatch.context() as mp:
        quiet = check_against_full_passes(mp)
        for t in range(PROPERTY_TICKS):
            for aid, message in mail[t]:
                society._deliver_copy(message, aid)
            society.run_tick(t)
    assert quiet["ticks"] == PROPERTY_TICKS * len(MASK_IDS)


SOCIETY_TICKS = 24


def addressed(program: AgentProgram, ids: list[str]) -> AgentProgram:
    """*program* with each ``.sendMsg`` recipient, in its plans and its
    norms' plans, replaced by one of the roster *ids* or ``ALL``."""
    names = (*ids, "ALL")

    def readdress(step_: BodyStep) -> BodyStep:
        if step_.kind is not StepKind.SEND:
            return step_
        name = names[len(repr(step_.recipient)) % len(names)]
        return BodyStep(StepKind.SEND, recipient=Sym(name), content=step_.content)

    def plan(p: PlanDef) -> PlanDef:
        return PlanDef(p.trigger, p.context, tuple(map(readdress, p.body)), p.label, p.normative)

    norms = tuple(
        NormDecl(d.deontic, plan(d.plan), d.limit, d.relevance, d.roles, d.pre_appraisal) for d in program.norms
    )
    return AgentProgram(
        program.beliefs, program.goals, tuple(map(plan, program.plans)), program.concerns, program.personality,
        program.roles, norms,
    )


#: Built once: Hypothesis validates a strategy on its first draw.
PROGRAMS = _programs()


def draw_society(data) -> tuple[Society, defaultdict]:
    """A society of two to four agents from random programs, ``norms__``
    blocks included, that perceive the literals their plans trigger on and
    the norms any of them declares, run for ``SOCIETY_TICKS``; and its
    random social feedback, as tick -> [(recipient, message)] to deliver
    before that tick runs."""
    ids = [f"a{i}" for i in range(data.draw(st.integers(2, 4), label="agents"))]
    programs = [addressed(data.draw(PROGRAMS, label=aid), ids) for aid in ids]
    plans = [p for prog in programs for p in (*prog.plans, *(d.plan for d in prog.norms))]
    sent = [step_.content for p in plans for step_ in p.body if step_.kind is StepKind.SEND]
    triggers = {p.trigger.literal for p in plans if p.trigger.type is TriggerType.BELIEF}
    # a norm(...) literal that is not a norm declaration faults by design
    assume(all(lit.functor != "norm" for lit in (*sent, *triggers)))
    texts = sorted(map(render_literal, triggers)) + [render_norm(d) for prog in programs for d in prog.norms]
    ticks = st.integers(0, SOCIETY_TICKS - 1)
    pulses = data.draw(
        st.lists(st.tuples(ticks, st.sampled_from(ids), st.sampled_from(texts)), max_size=12) if texts else st.just([]),
        label="pulses",
    )
    believed = {b for prog in programs for b in prog.beliefs}
    names = sorted({lit.functor for lit in triggers | believed if not lit.args})  # what feedback can name
    conditions = st.lists(
        st.tuples(st.sampled_from(names), st.booleans()), min_size=1, max_size=2, unique_by=lambda c: c[0]
    )
    feedback = data.draw(
        st.lists(st.tuples(ticks, st.sampled_from(ids), conditions, st.sampled_from(FEEDBACK_PAIRS)), max_size=6)
        if names
        else st.just([]),
        label="feedback",
    )
    config = ScenarioConfig.from_dict(
        {
            "ticks": SOCIETY_TICKS,
            "agents": [{"id": aid, "program": render(prog)} for aid, prog in zip(ids, programs)],
            "percepts": [{"agents": [aid], "literal": text, "at": t} for t, aid, text in pulses],
            "observation": {"authority": ids[0], "reactions": {"comply": [0.6, 0.2], "break": [-0.6, -0.2]}},
        }
    )
    mail = defaultdict(list)
    for t, aid, condition, pair in feedback:
        mail[t].append((aid, msg(render_feedback(condition, pair))))
    return Society(config, seed=1), mail


# no shrink phase, as in the breach test below
@settings(deadline=None, phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data())
def test_random_societies_equal_the_full_passes(data):
    """Every agent-tick of a random society (``draw_society``) equals the
    full passes, nothing faults, and ``C.I`` stays within its bound: each
    tick adds at most one intention for an event, and Cope never posts an
    action whose intention is pending, so at most one per coping action."""
    society, mail = draw_society(data)
    coping = [sum(len(c.actions) for c in agent.P.coping) for agent in society.roster.values()]
    with pytest.MonkeyPatch.context() as mp:
        quiet = check_against_full_passes(mp)
        for t in range(SOCIETY_TICKS):
            for aid, message in mail[t]:
                society._deliver_copy(message, aid)
            society.run_tick(t)
            for agent, actions in zip(society.roster.values(), coping):
                assert len(agent.C.I) <= t + 1 + actions
    assert quiet["ticks"] == SOCIETY_TICKS * len(society.roster)


#: The plans a breach copies from; an agent holding fewer cannot take it.
PLANS_NEEDED = {_unknown_norm_plan: 1, _foreign_applicable: 2}


def run_society(society: Society, mail: defaultdict) -> None:
    for t in range(SOCIETY_TICKS):
        for aid, message in mail[t]:
            society._deliver_copy(message, aid)
        society.run_tick(t)


# no shrink phase: shrinking a failing society takes minutes (see test_cli.py)
@settings(max_examples=30, deadline=None, phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data())
def test_breach_in_a_random_society_names_its_step(data):
    """A breach of any invariant, made just after a step that an agent of a
    random society (``draw_society``) walks, faults there: the
    ``InterpreterFault`` names that step, agent and tick.  Each breach the
    agent can take is tried at a walked step drawn for it."""
    society, mail = draw_society(data)
    walked: list = []  # (tick, agent id, label, plans held) of each walked step
    with pytest.MonkeyPatch.context() as mp:
        for label, (func, successors) in nea.cycle._STEPS.items():

            def recorded(agent, env, func=func, label=label):
                walked.append((env.tick, agent.id, label, len(agent.ps)))
                return func(agent, env)

            mp.setitem(nea.cycle._STEPS, label, (recorded, successors))
        run_society(society, mail)
    if not walked:  # every agent-tick was quiet
        return
    for breach, reason in BREACHES:
        at, aid, label, plans = data.draw(st.sampled_from(walked), label=breach.__name__)
        if plans < PLANS_NEEDED.get(breach, 0):
            continue
        func, successors = nea.cycle._STEPS[label]

        def breached(agent, env, func=func, at=at, aid=aid, breach=breach):
            entry = func(agent, env)
            if (env.tick, agent.id) == (at, aid):
                breach(agent, env)
            return entry

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(nea.cycle._STEPS, label, (breached, successors))
            with pytest.raises(InterpreterFault, match=reason) as caught:
                run_society(Society(society.config, seed=1), mail)
        assert (caught.value.step, caught.value.agent_id, caught.value.tick) == (label.value, aid, at)


def test_illegal_transition_names_its_step_agent_and_tick(monkeypatch):
    """A step that moves its agent to a label outside ``EDGES`` (here SelEv
    to ExecInt) faults there: the ``InterpreterFault`` names that step and
    agent, and ``Society.run_tick`` adds the tick."""
    society = Society(ScenarioConfig.load(builtin_scenario("mask")), seed=7)
    func, successors = nea.cycle._STEPS[StepLabel.SelEv]
    assert StepLabel.ExecInt not in successors

    def skipping(agent, env):
        entry = func(agent, env)
        if (env.tick, agent.id) == (1, "prof_rebel"):
            agent.s = StepLabel.ExecInt
        return entry

    monkeypatch.setitem(nea.cycle._STEPS, StepLabel.SelEv, (skipping, successors))
    society.run_tick(0)
    with pytest.raises(InterpreterFault, match="illegal transition to ExecInt") as caught:
        society.run_tick(1)
    assert (caught.value.step, caught.value.agent_id, caught.value.tick) == ("SelEv", "prof_rebel", 1)


MASKED_CAMPUS = frozenset({("wearing_mask", True), ("in_campus", True)})


def settled_patrol():
    """A patrol agent punished for walking the campus masked: its exit plan
    is revised on the first tick, and the record settles on the second."""
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=1, decay_affect=0.0)
    agent.add_belief(Literal("wearing_mask"), SOURCE_SELF)
    accumulate_feedback(agent.feedback, MASKED_CAMPUS, (-0.6, -0.2))
    first, _ = tick(agent, env)
    assert "revised 1 plan(s)" in next(e.summary for e in first if e.step == "SelCs")
    tick(agent, env)
    record = agent.feedback[MASKED_CAMPUS]
    assert record.settled is not None
    assert nea.cycle._quiet(agent, env)
    return agent, env, record


def detections(monkeypatch) -> list:
    """Records that ``detect_social_norm`` is called with, from now on."""
    calls: list = []
    inner = nea.cycle.detect_social_norm

    def counted(record, *args):
        calls.append(record)
        return inner(record, *args)

    monkeypatch.setattr(nea.cycle, "detect_social_norm", counted)
    return calls


def test_settled_agent_takes_the_quiet_affective_pass(monkeypatch):
    agent, env, _ = settled_patrol()
    calls = detections(monkeypatch)
    agent.Ta.sigma = (0.25, -0.5)
    first = run_affective_cycle(agent, env)
    second = run_affective_cycle(agent, env)
    assert calls == []
    assert [(e.step, e.summary, e.payload) for e in first] == [
        ("Appr", "0/0 appraised", {}),
        ("UpAs", "0 applied, sigma [0.250,-0.500]", {}),
        ("SelCs", "0 coping", {"revised": []}),
        ("Cope", "0 coping intentions", {}),
    ]
    assert all(a.payload is not b.payload for a, b in zip(first, second))
    assert first[2].payload["revised"] is not second[2].payload["revised"]


def _flip_condition_literal(agent, env, record):
    agent.remove_belief(Literal("wearing_mask"))


def _adopt_a_norm(agent, env, record):
    decl = parse_norm(EXIT_NORM_MSG)
    assert _adopt_norm(agent, decl, norm_id(decl)) is not None


def _accumulate_more(agent, env, record):
    accumulate_feedback(agent.feedback, MASKED_CAMPUS, (-0.1, 0.0))


def _move_the_threshold(agent, env, record):
    env.deviation_threshold = (0.4, 0.4)


@pytest.mark.parametrize(
    "change",
    [_flip_condition_literal, _adopt_a_norm, _accumulate_more, _move_the_threshold],
    ids=lambda fn: fn.__name__.strip("_"),
)
def test_record_unsettles_when_what_detection_reads_changes(monkeypatch, change):
    agent, env, record = settled_patrol()
    calls = detections(monkeypatch)
    change(agent, env, record)
    assert not nea.cycle._quiet(agent, env)
    run_affective_cycle(agent, env)
    assert calls == [record], "detection runs once more"
    run_affective_cycle(agent, env)
    assert calls == [record], "and the record settles again"


def test_belief_outside_the_condition_keeps_the_record_settled(monkeypatch):
    agent, env, _ = settled_patrol()
    calls = detections(monkeypatch)
    agent.add_belief(Literal("raining"), SOURCE_SELF)
    agent.add_belief(Literal("in_campus"), SOURCE_PERCEPT)  # a second source: still believed
    env.percepts = {Literal("in_campus")}  # and still perceived, so the walk stays quiet
    assert nea.cycle._quiet(agent, env)
    run_affective_cycle(agent, env)
    assert calls == []


def test_fresh_memory_or_selected_coping_takes_the_full_pass():
    agent, env, _ = settled_patrol()
    agent.Mem.append(MemoryEvent(tick=env.tick, kind=MemKind.SOCIAL_FEEDBACK, pair=(0.0, 0.0)))
    assert not nea.cycle._quiet(agent, env)
    run_affective_cycle(agent, env)
    assert nea.cycle._quiet(agent, env)
    gloomy = build_agent(
        "personality__: { [0.5,0.5,0.5,0.5,0.5], 0.9, [cope([-1.0,-0.2],[-1.0,1.0],[rest])], 0.0 }."
    )
    assert nea.cycle._quiet(gloomy, env)
    gloomy.Ta.sigma = (-0.5, 0.0)
    assert not nea.cycle._quiet(gloomy, env)


def test_selected_coping_alone_walks_and_equals_the_full_passes(monkeypatch):
    gloomy = build_agent(
        "personality__: { [0.5,0.5,0.5,0.5,0.5], 0.9, [cope([-1.0,-0.2],[-1.0,1.0],[rest])], 0.0 }."
    )
    gloomy.Ta.sigma = (-0.5, 0.0)
    env = make_env(n_agents=1, decay_affect=0.0)
    assert not nea.cycle._quiet(gloomy, env)  # its only work is the coping strategy
    quiet = check_against_full_passes(monkeypatch)
    entries, _ = nea.society.agent_tick(gloomy, env)
    assert [e.step for e in entries] == TICK_STEPS
    assert entries[14].summary == "1 coping intentions"
    assert [render_trigger(i.plan.trigger) for i in gloomy.C.I] == ["+!cope"]
    env.tick += 1
    entries, _ = nea.society.agent_tick(gloomy, env)  # runs it; none pending is queued twice
    assert entries[8].summary == "rest"
    assert (quiet["ticks"], quiet["quiet"]) == (2, 0)


def test_revision_that_changes_nothing_settles_the_record(monkeypatch):
    # the exit plan adds in_campus after deleting in_classroom: no avoid
    # literal holds before that step, so its "revision" is the plan itself
    agent = build_agent(PATROL_SOURCE)
    env = make_env(n_agents=1, decay_affect=0.0)
    record = accumulate_feedback(agent.feedback, frozenset({("in_campus", True)}), (-0.6, -0.2))
    plans, version = list(agent.ps), agent.plan_version
    calls = detections(monkeypatch)
    first = run_affective_cycle(agent, env)
    assert calls == [record]
    selcs = next(e for e in first if e.step == "SelCs")
    assert (selcs.summary, selcs.payload) == ("0 coping", {"revised": []})
    assert agent.ps == plans and agent.plan_version == version
    assert nea.cycle._quiet(agent, env)
    run_affective_cycle(agent, env)
    assert calls == [record]
