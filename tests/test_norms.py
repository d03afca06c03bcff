"""Norm engine oracles: exact worked values, the compliance table, the
stratified-ordering oracle, and lifecycle properties."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nea.core import DECAY_STEP, AgentConfig, MemKind, Message, MemoryEvent, NormativeBelief, norm_id
from nea.cycle import EnvironmentView, _adopt_norm, expand, step
from nea.lang import AFFECT_FUNCTOR, Literal, StepKind, parse_literal_text
from nea.norms import (
    BREAK,
    COMPLY,
    UtilityInputs,
    active,
    affect_step,
    anticipated_mood,
    choose_variant,
    compliance_utility,
    comply_to_norm,
    eval_percepts,
    gen_norm_plans,
    increment_relevance,
    opp_emotion,
    order_applicable_plans,
    relevance_decay,
    select_intention,
)
from nea.society import ScenarioConfig, Society

from conftest import MASK_NORM_TEXT, PATROL_SOURCE, build_agent, parse_norm


def norm_decl(
    deontic: str = "obligation",
    action: str = "put_on_mask",
    limit: int = 0,
    relevance: float = 30.0,
    pa=(0.5, 0.5),
    trigger: str = "enter_classroom",
):
    return parse_norm(
        f'norm("{deontic}", "np__{trigger}:not done <- {action}; +done.",'
        f' {limit}, {relevance}, "ALL", [{pa[0]},{pa[1]}])'
    )


def make_norm(*args, **kw) -> NormativeBelief:
    decl = norm_decl(*args, **kw)
    return NormativeBelief.from_decl(decl, norm_id(decl))


# ----------------------------------------------------------------------
# exact worked values


def test_opp_emotion_worked_value():
    assert opp_emotion((-0.25, 0.5)) == (0.25, -0.5)


def test_increment_relevance_worked_values():
    assert increment_relevance(50.0, 1, 0.1) == 50.1
    assert increment_relevance(0.0, 1, 0.1) == 1.0


def test_increment_relevance_divides_by_population():
    assert increment_relevance(50.0, 2, 0.1) == 50.0 + 0.1 / 2
    assert increment_relevance(50.0, 1, delta=0.4) == 50.4


@settings(max_examples=200, deadline=None)
@given(st.tuples(
    st.floats(min_value=-1, max_value=1, allow_nan=False),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
))
def test_opp_emotion_is_an_involution(pair):
    assert opp_emotion(opp_emotion(pair)) == pair


# ----------------------------------------------------------------------
# activity predicate


def test_active_checks_limit_and_relevance():
    unbounded = make_norm(limit=0, relevance=30.0)
    assert active(unbounded, cycle=10_000, threshold=25.0)
    bounded = make_norm(limit=10, relevance=30.0)
    assert active(bounded, cycle=9, threshold=25.0)
    assert not active(bounded, cycle=10, threshold=25.0), "limit reached = expired"
    weak = make_norm(limit=0, relevance=10.0)
    assert not active(weak, cycle=0, threshold=25.0)
    assert active(weak, cycle=0, threshold=10.0), "threshold is inclusive"


@pytest.mark.parametrize("limit", [2, 3])
def test_norm_expires_at_the_run_tick(limit):
    """Through a run, an obligation with limit L steers SelAppl (the chosen
    variant's ``[comply]``/``[break]`` suffix) on ticks below L only.  Its
    trigger ``+bell`` is selected on every odd tick, and its relevance
    stays above the threshold, so only expiry turns it off.  Limits 2 and 3
    pin both sides of the boundary: tick L-1 and tick L."""
    program = f'norms__: {{ norm("obligation", "np__bell <- ring.", {limit}, 50.0, "ALL", [0.5,0.5]) }}.'
    threshold = 25.0
    config = ScenarioConfig.from_dict(
        {
            "ticks": 8,
            "agents": [{"id": "a", "program": program}],
            "percepts": [{"agents": ["a"], "literal": "bell", "from": 0, "period": 2}],
            "params": {"relevance_threshold": threshold},
        }
    )
    entries = expand(Society(config, seed=1).run().trace)
    selected = {e.tick: e.summary for e in entries if e.step == "SelAppl" and e.summary != "idle"}
    assert sorted(selected) == [1, 3, 5, 7]
    for t, summary in selected.items():
        assert summary == ("+bell [comply]" if t < limit else "+bell"), t
    relevance = [r for e in entries if e.step == DECAY_STEP for r in e.payload["relevance"].values()]
    assert len(relevance) == 8 and min(relevance) >= threshold


# ----------------------------------------------------------------------
# compliance table: {obligation, prohibition, none} x {within, expired, unbounded}


def test_comply_to_norm_nine_case_table():
    pa = (0.5, 0.25)
    cycle = 5
    action = Literal("put_on_mask")
    stranger = Literal("sing")

    def norms(deontic, limit):
        return [make_norm(deontic=deontic, limit=limit, pa=pa)]

    table = [
        # (deontic, limit, action, expected pair)
        ("obligation", 10, action, pa),  # within limit
        ("obligation", 5, action, None),  # expired (cycle == limit)
        ("obligation", 0, action, pa),  # unbounded
        ("prohibition", 10, action, (-0.5, -0.25)),
        ("prohibition", 5, action, None),
        ("prohibition", 0, action, (-0.5, -0.25)),
        ("obligation", 10, stranger, None),  # no owning norm
        ("prohibition", 5, stranger, None),
        ("obligation", 0, stranger, None),
    ]
    for deontic, limit, act, expected in table:
        nbs = norms(deontic, limit)
        result = comply_to_norm(act, nbs, cycle)
        if expected is None:
            assert result is None, (deontic, limit, act.functor)
        else:
            variant, pair, owner = result
            assert variant == (COMPLY if deontic == "obligation" else BREAK), (deontic, limit)
            assert pair == expected, (deontic, limit)
            assert owner is nbs[0]


def test_comply_to_norm_ignores_trigger_name():
    # only body-step literals attribute the action, not the trigger
    nb = make_norm(action="put_on_mask", trigger="enter_classroom")
    assert comply_to_norm(Literal("enter_classroom"), [nb], 0) is None


# ----------------------------------------------------------------------
# plan-generation pairing


def base_plan_library():
    from nea.lang import parse_plan_text

    return [
        parse_plan_text(
            "+enter_classroom:not in_classroom <- -in_campus; +in_classroom."
        )
    ]


def test_gen_norm_plans_pair_addition():
    nb = make_norm(pa=(0.5, 0.5))
    ps = base_plan_library()
    base_body = ps[0].body
    added = gen_norm_plans(ps, nb)
    assert len(added) == 2 and len(ps) == 3
    comply, breach = added
    assert comply.variant == COMPLY and breach.variant == BREAK
    assert comply.norm_id == nb.id and breach.norm_id == nb.id
    assert comply.normative and breach.normative
    # comply = base body + norm body + affect(pa)
    assert comply.body[: len(base_body)] == base_body
    assert [s.literal.functor for s in comply.body[len(base_body) : -1]] == [
        "put_on_mask",
        "done",
    ]
    assert comply.body[-1].literal.functor == AFFECT_FUNCTOR
    assert comply.body[-1].literal.args == (0.5, 0.5)
    # break = base body + affect(opp(pa)) only
    assert breach.body[: len(base_body)] == base_body
    assert len(breach.body) == len(base_body) + 1
    assert breach.body[-1].literal.args == (-0.5, -0.5)
    # both inherit the norm plan's context
    assert comply.context == nb.plan.context == breach.context


def test_gen_norm_plans_idempotent():
    """Adopting a held norm again changes nothing: ``_adopt_norm``, the only
    caller of ``gen_norm_plans``, returns first, whether the second copy is
    adopted directly or told after the first was perceived."""
    decl = parse_norm(MASK_NORM_TEXT)
    nid = norm_id(decl)
    agent = build_agent(PATROL_SOURCE)
    assert _adopt_norm(agent, decl, nid) == nid
    held = (list(agent.ps), list(agent.NB), agent.plan_version)
    assert _adopt_norm(agent, decl, nid) is None
    assert (agent.ps, agent.NB, agent.plan_version) == held

    agent = build_agent(PATROL_SOURCE)
    env = EnvironmentView(percepts={parse_literal_text(MASK_NORM_TEXT)})
    agent.M.In.append(Message(mid=1, sender="rectorate", content=MASK_NORM_TEXT))
    assert step(agent, env).summary == f"+1/-0 percepts, adopted {nid}"
    held = (list(agent.ps), list(agent.NB), agent.plan_version)
    assert len(agent.ps) == 4 and agent.plan_version == 1
    assert step(agent, env).summary == "norm from rectorate: already held"
    assert (agent.ps, agent.NB, agent.plan_version) == held


def test_gen_norm_plans_without_base_plan():
    nb = make_norm(trigger="file_report")
    ps: list = []
    comply, breach = gen_norm_plans(ps, nb)
    assert [s.literal.functor for s in comply.body] == ["put_on_mask", "done", AFFECT_FUNCTOR]
    assert [s.literal.functor for s in breach.body] == [AFFECT_FUNCTOR]


@settings(max_examples=200, deadline=None)
@given(
    deontic=st.sampled_from(["obligation", "prohibition"]),
    pa=st.tuples(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    ),
    limit=st.integers(min_value=0, max_value=50),
    with_base=st.booleans(),
)
def test_gen_norm_plans_properties(deontic, pa, limit, with_base):
    decl = norm_decl(deontic=deontic, limit=limit, pa=(round(pa[0], 6), round(pa[1], 6)))
    nb = NormativeBelief.from_decl(decl, norm_id(decl))
    ps = base_plan_library() if with_base else []
    size0 = len(ps)
    added = gen_norm_plans(ps, nb)
    assert len(added) == 2
    assert len(ps) == size0 + 2
    assert {p.variant for p in added} == {COMPLY, BREAK}
    agent = AgentConfig(id="x", ps=ps)
    agent.NB.append(nb)  # held, as adoption leaves it
    assert _adopt_norm(agent, decl, nb.id) is None and len(ps) == size0 + 2


# ----------------------------------------------------------------------
# ordering: exhaustive multiset check against an independent oracle


def keep_comply(nb) -> str:
    """The chooser that places the comply variant when both are applicable."""
    return COMPLY


def oracle_order(ap, nbs, cycle, threshold):
    """Stratified sort, written as a single stable keyed sort."""
    by_id = {nb.id: nb for nb in nbs}

    def is_active(nb):
        return nb.relevance >= threshold and (nb.limit == 0 or cycle < nb.limit)

    chosen = {}
    for plan in ap:
        nid = plan.norm_id
        if nid is None or nid in chosen:
            continue
        nb = by_id.get(nid)
        if nb is None or not is_active(nb):
            continue
        present = [p.variant for p in ap if p.norm_id == nid]
        chosen[nid] = COMPLY if COMPLY in present else present[0]

    def key(item):
        idx, plan = item
        nb = by_id.get(plan.norm_id) if plan.norm_id else None
        if nb is not None and chosen.get(nb.id) == plan.variant and is_active(nb):
            remaining = math.inf if nb.limit == 0 else nb.limit - cycle
            return (0 if nb.deontic == "obligation" else 1, remaining, idx)
        return (2, 0.0, idx)

    return [plan for _, plan in sorted(enumerate(ap), key=key)]


def ordering_universe(cycle=5, threshold=25.0):
    nb_ob = make_norm("obligation", limit=15, relevance=30.0, trigger="t1")
    nb_ob_unbounded = make_norm("obligation", limit=0, relevance=30.0, trigger="t2")
    nb_pro = make_norm("prohibition", limit=9, relevance=30.0, trigger="t3")
    nb_weak = make_norm("obligation", limit=0, relevance=10.0, trigger="t4")
    nb_expired = make_norm("prohibition", limit=5, relevance=30.0, trigger="t5")
    nbs = [nb_ob, nb_ob_unbounded, nb_pro, nb_weak, nb_expired]

    pool = []
    for nb in nbs:
        plans: list = []
        gen_norm_plans(plans, nb)
        pool.extend(plans)
    from nea.lang import parse_plan_text

    pool.append(parse_plan_text("+t6 <- relax."))
    return pool, nbs, cycle, threshold


def test_order_applicable_plans_exhaustive_multisets():
    pool, nbs, cycle, threshold = ordering_universe()
    checked = 0
    for size in range(0, 6):
        for combo in itertools.combinations_with_replacement(pool, size):
            for ap in (list(combo), list(reversed(combo))):
                got = order_applicable_plans(ap, nbs, cycle, threshold, keep_comply)
                assert got == oracle_order(ap, nbs, cycle, threshold)
                assert sorted(map(id, got)) == sorted(map(id, ap)), "permutation"
                checked += 1
    assert checked > 1000


def test_ordering_worked_examples():
    pool, nbs, cycle, threshold = ordering_universe()
    nb_ob, nb_ob_unbounded, nb_pro, nb_weak, nb_expired = nbs
    by = {(p.norm_id, p.variant): p for p in pool}
    plain = pool[-1]

    # all active: obligation stratum, then prohibition, then the plain plan
    ap = [plain, by[(nb_pro.id, COMPLY)], by[(nb_ob.id, COMPLY)]]
    got = order_applicable_plans(ap, nbs, cycle, threshold, keep_comply)
    assert got == [by[(nb_ob.id, COMPLY)], by[(nb_pro.id, COMPLY)], plain]

    # closer limit first; unbounded obligations sort last in the stratum
    ap = [by[(nb_ob_unbounded.id, COMPLY)], by[(nb_ob.id, COMPLY)]]
    got = order_applicable_plans(ap, nbs, cycle, threshold, keep_comply)
    assert got == [by[(nb_ob.id, COMPLY)], by[(nb_ob_unbounded.id, COMPLY)]]

    # below-threshold and expired norms fall to the tail in input order
    ap = [by[(nb_weak.id, COMPLY)], by[(nb_expired.id, COMPLY)], by[(nb_ob.id, COMPLY)]]
    got = order_applicable_plans(ap, nbs, cycle, threshold, keep_comply)
    assert got == [by[(nb_ob.id, COMPLY)], by[(nb_weak.id, COMPLY)], by[(nb_expired.id, COMPLY)]]

    # when both variants are applicable only the chosen one is promoted
    ap = [by[(nb_ob.id, BREAK)], by[(nb_ob.id, COMPLY)], plain]
    got = order_applicable_plans(ap, nbs, cycle, threshold, keep_comply)
    assert got == [by[(nb_ob.id, COMPLY)], by[(nb_ob.id, BREAK)], plain]
    got = order_applicable_plans(
        ap, nbs, cycle, threshold, choose=lambda nb: BREAK
    )
    assert got == [by[(nb_ob.id, BREAK)], by[(nb_ob.id, COMPLY)], plain]


# ----------------------------------------------------------------------
# the comply/break rule


def test_compliance_utility_formulas():
    u = UtilityInputs(reb=0.25, frac_affected=0.5, s=0.1, s_new=0.3, relevance=2.0)
    comply, breach = compliance_utility(u, relevance_weight=1.0)
    assert comply == pytest.approx((1 - 0.25) * 0.5 * (0.1 - 0.3) + 2.0)
    assert breach == pytest.approx(0.25 * (1 - 0.5) * (0.1 + 0.3) - 2.0)
    comply_w, breach_w = compliance_utility(u, relevance_weight=0.5)
    assert comply_w == pytest.approx((1 - 0.25) * 0.5 * (0.1 - 0.3) + 1.0)
    assert breach_w == pytest.approx(0.25 * (1 - 0.5) * (0.1 + 0.3) - 1.0)


def test_choose_variant_tie_goes_to_comply():
    u = UtilityInputs(reb=0.0, frac_affected=0.0, s=0.0, s_new=0.0, relevance=0.0)
    assert compliance_utility(u, relevance_weight=1.0) == (0.0, 0.0)
    assert choose_variant(*compliance_utility(u, relevance_weight=1.0)) == COMPLY


def test_choose_variant_calibration_window():
    # mask-scenario operating point: sigma ~ 0, s_new - s = 0.2,
    # fraction 0.4, relevance 4.0, relevance weight 0.0125
    low_reb = UtilityInputs(reb=0.2, frac_affected=0.4, s=0.0, s_new=0.2, relevance=4.0)
    high_reb = UtilityInputs(reb=0.8, frac_affected=0.4, s=0.0, s_new=0.2, relevance=4.0)
    assert choose_variant(*compliance_utility(low_reb, relevance_weight=0.0125)) == COMPLY
    assert choose_variant(*compliance_utility(high_reb, relevance_weight=0.0125)) == BREAK


unit = st.floats(min_value=-1, max_value=1, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    reb=st.floats(min_value=0, max_value=1, allow_nan=False),
    frac=st.floats(min_value=0, max_value=1, allow_nan=False),
    sigma=st.tuples(unit, unit),
    pre=st.tuples(unit, unit),
    rel=st.floats(min_value=0, max_value=60, allow_nan=False),
    weight=st.sampled_from([1.0, 0.0125]),
)
def test_choose_variant_matches_utilities(reb, frac, sigma, pre, rel, weight):
    """The rule the interpreter and `nea sweep` run, against the formulas
    written out here; sigma + pre-appraisal leaves [-1, 1] on many of
    the draws, so the clamp is exercised."""
    s = (sigma[0] + sigma[1]) / 2
    clamped = [min(1.0, max(-1.0, x + y)) for x, y in zip(sigma, pre)]
    s_new = (clamped[0] + clamped[1]) / 2
    assert anticipated_mood(sigma, pre) == s_new

    u = UtilityInputs(reb=reb, frac_affected=frac, s=s, s_new=s_new, relevance=rel)
    follow, breach = compliance_utility(u, relevance_weight=weight)
    assert follow == (1 - reb) * frac * (s - s_new) + weight * rel
    assert breach == reb * (1 - frac) * (s + s_new) - weight * rel
    assert choose_variant(follow, breach) == (BREAK if breach > follow else COMPLY)


# ----------------------------------------------------------------------
# temporal dynamics


@settings(max_examples=300, deadline=None)
@given(
    rel0=st.floats(min_value=0.01, max_value=60, allow_nan=False),
    rate=st.floats(min_value=0.001, max_value=5, allow_nan=False),
    threshold=st.floats(min_value=1e-6, max_value=70, allow_nan=False),
)
def test_unreinforced_norms_decay_below_any_threshold(rel0, rate, threshold):
    nb = make_norm(relevance=rel0)
    nb.relevance = rel0
    ticks = math.ceil(rel0 / rate)
    for t in range(ticks):
        relevance_decay([nb], [], rate, tick=t)
    # repeated float subtraction can leave a ~1e-13 residue above the exact
    # zero, still far below any representable threshold of interest
    assert nb.relevance < threshold
    assert not active(nb, cycle=0, threshold=threshold)
    # its plans now sort into the tail stratum
    plans: list = []
    gen_norm_plans(plans, nb)
    from nea.lang import parse_plan_text

    plain = parse_plan_text("+t9 <- hum.")
    ordered = order_applicable_plans([plans[0], plain], [nb], 0, threshold, keep_comply)
    assert ordered == [plans[0], plain], "decayed norm keeps input order in the tail"
    fresh = make_norm(deontic="obligation", relevance=threshold + 1, trigger="t7")
    fresh_plans: list = []
    gen_norm_plans(fresh_plans, fresh)
    ordered = order_applicable_plans(
        [plans[0], fresh_plans[0]], [nb, fresh], 0, threshold, keep_comply
    )
    assert ordered == [fresh_plans[0], plans[0]], "active norms overtake decayed ones"


def test_relevance_decay_skips_reinforced_norms():
    nb = make_norm(relevance=10.0)
    reinforced = MemoryEvent(tick=4, kind=MemKind.NORM_FEEDBACK, pair=(0.1, 0.1), norm_id=nb.id)
    relevance_decay([nb], [reinforced], 0.5, tick=4)
    assert nb.relevance == 10.0, "same-tick feedback suspends decay"
    relevance_decay([nb], [reinforced], 0.5, tick=5)
    assert nb.relevance == 9.5, "older feedback does not"
    nb.relevance = 0.2
    relevance_decay([nb], [], 0.5, tick=6)
    assert nb.relevance == 0.0, "relevance floors at zero"


# ----------------------------------------------------------------------
# percept differencing / affect step / intention selection


def test_eval_percepts_differences():
    fresh = {Literal("a"), Literal("b")}
    held = {Literal("b"), Literal("c")}
    new_p, rem_p = eval_percepts(fresh, held)
    assert new_p == {Literal("a")}
    assert rem_p == {Literal("c")}


def test_affect_step_shape():
    step = affect_step((0.3, -0.2))
    assert step.kind is StepKind.ACT
    assert step.literal.functor == AFFECT_FUNCTOR
    assert step.literal.args == (0.3, -0.2)


def test_select_intention_prefers_active_norms():
    agent = AgentConfig(id="x")
    nb = make_norm(relevance=30.0)
    plans: list = []
    gen_norm_plans(plans, nb)
    from nea.lang import parse_plan_text

    plain = agent.new_intention(parse_plan_text("+t8 <- act."))
    normative = agent.new_intention(plans[0])
    assert select_intention([plain, normative], [nb], 0, 25.0) is normative
    assert select_intention([plain], [nb], 0, 25.0) is plain
    assert select_intention([], [nb], 0, 25.0) is None
    # once the norm decays the normative intention loses its priority
    nb.relevance = 0.0
    assert select_intention([plain, normative], [nb], 0, 25.0) is plain
