"""Acceptance gate: seven checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
without ``-s`` they appear in the captured-output section of any failure.
Every check also carries a wall-clock budget.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import time
from contextlib import contextmanager

from nea.affect import affect_decay, update_affect
from nea.cli import main
from nea.core import AgentConfig, NormativeBelief, norm_id
from nea.cycle import _adopt_norm
from nea.lang import (
    Literal,
    StepKind,
    Sym,
    TriggerEvent,
    TriggerKind,
    TriggerType,
    parse_agent_program,
    parse_feedback,
    parse_plan_text,
    render,
    render_plan,
)
from nea.norms import (
    BREAK,
    COMPLY,
    affect_step,
    comply_to_norm,
    gen_norm_plans,
    increment_relevance,
    opp_emotion,
    order_applicable_plans,
    relevance_decay,
)
from nea.society import (
    METRICS_COLUMNS,
    ScenarioConfig,
    Society,
    write_metrics,
    write_trace_meta,
    write_trace_structured,
)
from nea import builtin_scenario

from conftest import corpus_files, parse_norm
from test_cycle import fuzz_step_machine
from test_norms import keep_comply, oracle_order, ordering_universe


@contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"criterion {number} ({label}): {verdict} ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:g}s budget: {elapsed:.2f}s"


# ----------------------------------------------------------------------
# 1. exact scalar arithmetic


def test_criterion_1_exact_arithmetic():
    with criterion(1, "exact arithmetic", budget=1.0):
        assert opp_emotion((-0.25, 0.5)) == (0.25, -0.5)
        assert increment_relevance(50.0, 1, 0.1) == 50.1
        assert increment_relevance(0.0, 1, 0.1) == 1.0


# ----------------------------------------------------------------------
# 2. language fragments and corpus round-trip


ENTRY_PLAN = (
    "+enter_classroom : not in_classroom <- "
    "-in_campus; +in_classroom; +teach_lesson; -exit_classroom."
)
CONFORMIST_EXIT = (
    "+exit_classroom : in_classroom <- "
    "-in_classroom; +in_campus; +enjoy_freetime; +enter_classroom."
)
REBEL_EXIT = (
    "+exit_classroom : in_classroom <- "
    "-in_classroom; -wearing_mask; +in_campus; +enjoy_freetime; +enter_classroom."
)
MASK_OBLIGATION = (
    'norm("obligation", "np__enter_classroom:role(professor) & not wearing_mask'
    ' <- +wearing_mask.", 0, 50.0, "ALL", [0.5,0.5])'
)
YELL_PROHIBITION = 'norm("prohibition","np__yell:at_classroom",0,50,"ALL",[0.1,0.1])'
FEEDBACK_MESSAGE = "(+wearing_mask;+in_campus),[-0.1,-0.2]"


def plan_shape(plan):
    return (
        plan.trigger,
        tuple((cl.negated, cl.literal) for cl in plan.context),
        tuple((s.kind, s.literal) for s in plan.body),
    )


def test_criterion_2_language_fragments_and_roundtrip():
    with criterion(2, "language fragments + corpus round-trip", budget=5.0):
        add = lambda name: TriggerEvent(TriggerKind.ADD, TriggerType.BELIEF, Literal(name))

        entry = parse_plan_text(ENTRY_PLAN)
        assert plan_shape(entry) == (
            add("enter_classroom"),
            ((True, Literal("in_classroom")),),
            (
                (StepKind.DEL, Literal("in_campus")),
                (StepKind.ADD, Literal("in_classroom")),
                (StepKind.ADD, Literal("teach_lesson")),
                (StepKind.DEL, Literal("exit_classroom")),
            ),
        )

        conformist = parse_plan_text(CONFORMIST_EXIT)
        assert plan_shape(conformist) == (
            add("exit_classroom"),
            ((False, Literal("in_classroom")),),
            (
                (StepKind.DEL, Literal("in_classroom")),
                (StepKind.ADD, Literal("in_campus")),
                (StepKind.ADD, Literal("enjoy_freetime")),
                (StepKind.ADD, Literal("enter_classroom")),
            ),
        )

        rebel = parse_plan_text(REBEL_EXIT)
        assert plan_shape(rebel) == (
            add("exit_classroom"),
            ((False, Literal("in_classroom")),),
            (
                (StepKind.DEL, Literal("in_classroom")),
                (StepKind.DEL, Literal("wearing_mask")),
                (StepKind.ADD, Literal("in_campus")),
                (StepKind.ADD, Literal("enjoy_freetime")),
                (StepKind.ADD, Literal("enter_classroom")),
            ),
        )

        mask = parse_norm(MASK_OBLIGATION)
        assert mask.deontic == "obligation"
        assert mask.limit == 0
        assert mask.relevance == 50.0
        assert mask.roles == "ALL"
        assert mask.pre_appraisal == (0.5, 0.5)
        assert mask.plan.trigger == add("enter_classroom")
        assert [(cl.negated, cl.literal) for cl in mask.plan.context] == [
            (False, Literal("role", (Sym("professor"),))),
            (True, Literal("wearing_mask")),
        ]
        assert [(s.kind, s.literal) for s in mask.plan.body] == [
            (StepKind.ADD, Literal("wearing_mask"))
        ]

        yell = parse_norm(YELL_PROHIBITION)
        assert yell.deontic == "prohibition"
        assert yell.limit == 0
        assert yell.relevance == 50.0
        assert yell.roles == "ALL"
        assert yell.pre_appraisal == (0.1, 0.1)
        assert yell.plan.trigger == add("yell")
        assert [(cl.negated, cl.literal) for cl in yell.plan.context] == [
            (False, Literal("at_classroom"))
        ]
        assert yell.plan.body == ()

        condition, pair = parse_feedback(FEEDBACK_MESSAGE)
        assert frozenset(condition) == {("wearing_mask", True), ("in_campus", True)}
        assert pair == (-0.1, -0.2)

        files = corpus_files()
        assert len(files) >= 20
        for path in files:
            source = path.read_text(encoding="utf-8")
            program = parse_agent_program(source)
            canonical = render(program)
            again = parse_agent_program(canonical)
            assert again == program, path.name
            assert render(again) == canonical, path.name


# ----------------------------------------------------------------------
# 3. decision kernels against independent oracles


def norm_of(deontic, limit, relevance=30.0, pa=(0.5, 0.25)):
    text = (
        f'norm("{deontic}", "np__wake:not done <- put_on_mask; +done.",'
        f' {limit}, {relevance}, "ALL", [{pa[0]},{pa[1]}])'
    )
    decl = parse_norm(text)
    return NormativeBelief.from_decl(decl, norm_id(decl))


def test_criterion_3_kernels_match_oracles():
    with criterion(3, "kernels vs oracles", budget=30.0):
        # comply_to_norm: {obligation, prohibition, none} x {within, expired,
        # unbounded}, checked against a hand-written table
        pa = (0.5, 0.25)
        cycle = 5
        owned = Literal("put_on_mask")
        foreign = Literal("sing")
        table = [
            ("obligation", 10, owned, pa),
            ("obligation", 5, owned, None),
            ("obligation", 0, owned, pa),
            ("prohibition", 10, owned, (-0.5, -0.25)),
            ("prohibition", 5, owned, None),
            ("prohibition", 0, owned, (-0.5, -0.25)),
            ("obligation", 10, foreign, None),
            ("prohibition", 5, foreign, None),
            ("obligation", 0, foreign, None),
        ]
        for deontic, limit, action, expected in table:
            nb = norm_of(deontic, limit, pa=pa)
            got = comply_to_norm(action, [nb], cycle)
            if expected is None:
                assert got is None, (deontic, limit, action.functor)
            else:
                assert got is not None and got[1:] == (expected, nb)

        # ordering: exhaustive over all applicable-plan multisets of size <= 5
        pool, nbs, cycle, threshold = ordering_universe()
        checked = 0
        for size in range(0, 6):
            for combo in itertools.combinations_with_replacement(pool, size):
                for ap in (list(combo), list(reversed(combo))):
                    got = order_applicable_plans(ap, nbs, cycle, threshold, keep_comply)
                    assert got == oracle_order(ap, nbs, cycle, threshold)
                    checked += 1
        assert checked > 1000

        # update_affect: 10^4 random inputs against interval arithmetic, exact
        rng = random.Random(8151515)
        for _ in range(10_000):
            sigma = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            response = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            n = rng.randint(1, 50)
            got = update_affect(sigma, response, n)
            want = (
                min(1.0, max(-1.0, sigma[0] + response[0] / n)),
                min(1.0, max(-1.0, sigma[1] + response[1] / n)),
            )
            assert got == want, "every component must match with zero error"
            assert -1.0 <= got[0] <= 1.0 and -1.0 <= got[1] <= 1.0


# ----------------------------------------------------------------------
# 4. norm-plan generation and the two decay laws


def test_criterion_4_generation_and_decay():
    with criterion(4, "plan generation + decay laws", budget=60.0):
        rng = random.Random(4001)

        # pair-addition over randomized norms, and idempotent adoption
        for case in range(1000):
            deontic = rng.choice(("obligation", "prohibition"))
            trigger = f"t{rng.randrange(8)}"
            limit = rng.choice((0, rng.randrange(1, 30)))
            relevance = round(rng.uniform(0.0, 60.0), 3)
            pa = (round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3))
            body = rng.choice(("do_it.", "do_it; +made.", "+made."))
            decl = parse_norm(
                f'norm("{deontic}", "np__{trigger}:not busy <- {body}",'
                f' {limit}, {relevance}, "ALL", [{pa[0]},{pa[1]}])'
            )
            nb = NormativeBelief.from_decl(decl, norm_id(decl))
            base = parse_plan_text(f"+{trigger} : calm <- step_one; +done.")
            ps = [base]
            added = gen_norm_plans(ps, nb)
            assert len(added) == 2 and len(ps) == 3
            by_variant = {plan.variant: plan for plan in added}
            comply, breach = by_variant[COMPLY], by_variant[BREAK]
            for plan in (comply, breach):
                assert plan.norm_id == nb.id
                assert plan.trigger == base.trigger
                assert plan.context == nb.plan.context
            assert comply.body == base.body + nb.plan.body + (affect_step(nb.pre_appraisal),)
            assert breach.body == base.body + (affect_step(opp_emotion(nb.pre_appraisal)),)
            agent = AgentConfig(id="a", ps=[base])
            assert _adopt_norm(agent, decl, nb.id) == nb.id and agent.ps == ps
            held = (list(agent.ps), list(agent.NB), agent.plan_version)
            assert _adopt_norm(agent, decl, nb.id) is None, "idempotent"
            assert (agent.ps, agent.NB, agent.plan_version) == held

        # relevance decay reaches any positive threshold within ceil(rel0/rate)
        # ticks, after which the norm's plans are no longer promoted
        plain = parse_plan_text("+elsewhere <- relax.")
        for case in range(1000):
            nb = norm_of("obligation", limit=0)
            ps = []
            gen_norm_plans(ps, nb)
            comply = next(p for p in ps if p.variant == COMPLY)
            rel0 = rng.uniform(0.1, 40.0)
            rate = rng.uniform(0.05, 0.5)
            threshold = rng.uniform(1e-6, rel0)
            nb.relevance = rel0

            before = order_applicable_plans([plain, comply], [nb], 0, threshold, keep_comply)
            assert before[0] is comply, "active norm claims the front"

            ticks = math.ceil(rel0 / rate)
            for t in range(ticks):
                relevance_decay([nb], [], rate, tick=t)
            assert nb.relevance < threshold
            after = order_applicable_plans([plain, comply], [nb], 0, threshold, keep_comply)
            assert after[0] is plain, "faded norm keeps input order"

        # affect decay contracts toward the neutral state
        for _ in range(1000):
            sigma = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            rate = rng.uniform(1e-6, 1.0)
            shrunk = affect_decay(sigma, rate)
            for i in (0, 1):
                assert abs(shrunk[i]) <= abs(sigma[i])
                if abs(sigma[i]) > 1e-6:
                    assert abs(shrunk[i]) < abs(sigma[i])
                    assert shrunk[i] * sigma[i] >= 0.0, "no sign flip"
            # iterating the law lands arbitrarily close to (0, 0)
            state = sigma
            for _ in range(64):
                state = affect_decay(state, 0.5)
            assert abs(state[0]) < 1e-9 and abs(state[1]) < 1e-9


# ----------------------------------------------------------------------
# 5. the full scenario arc, asserted on the emitted artifacts


def load_emitted(tmp_path):
    config = ScenarioConfig.load(builtin_scenario("mask"))
    society = Society(config)
    result = society.run()
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.csv"
    with trace_path.open("w", encoding="utf-8") as fh:
        write_trace_meta(society.meta(config.ticks), fh)
        write_trace_structured(result.trace, fh, {})
    with metrics_path.open("w", encoding="utf-8", newline="") as fh:
        write_metrics([METRICS_COLUMNS, *result.metrics], fh)

    records = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    meta, records = records[0], records[1:]
    with metrics_path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return meta, records, rows


def test_criterion_5_scenario_arc(tmp_path):
    with criterion(5, "scenario arc", budget=10.0):
        meta, records, rows = load_emitted(tmp_path)
        professors = ("prof_conformist", "prof_rebel")
        assert meta["meta"]["ticks"] <= 300

        # (a) the announced norm registers with both professors, and each
        # entry event then finds base + comply + break plans
        adoptions = {
            r["agent"]: r["payload"]["adopted"]
            for r in records
            if r["step"] == "ProcMsg" and r["payload"].get("adopted")
        }
        assert set(professors) <= set(adoptions)
        nid = adoptions[professors[0]]
        assert adoptions[professors[1]] == nid
        for agent in professors:
            assert any(
                r["agent"] == agent and r["step"] == "RelPl" and r["summary"] == "3 relevant"
                for r in records
            ), f"{agent} should weigh three plans at the entry event"

        # (b) the conformist complies at every entry and is praised; the
        # rebel violates at its first entry and is scolded
        def announcements(agent):
            return [
                (int(r["tick"]), r["variant"]) for r in rows if r["agent"] == agent and r["variant"]
            ]

        conf = announcements("prof_conformist")
        reb = announcements("prof_rebel")
        assert conf and all(variant == "comply" for _, variant in conf)
        assert reb and reb[0][1] == "break"

        def replies(agent):
            return [
                tuple(r["payload"]["pair"])
                for r in records
                if r["agent"] == agent and r["step"] == "ProcMsg" and "pair" in r["payload"]
                and r["payload"].get("norm") == nid
            ]

        assert (0.6, 0.2) in replies("prof_conformist"), "compliance praised"
        assert (-0.6, -0.2) in replies("prof_rebel"), "violation scolded"

        # (c) campus feedback accumulates to the deviation threshold and the
        # conformist's exit plan is rewritten into the rebel's printed form
        fed = [
            r["payload"]["feedback"].get("+in_campus|+wearing_mask")
            for r in records
            if r["agent"] == "prof_conformist" and r["step"] == "AsNrDecay"
        ]
        assert any(pair and pair[0] <= -0.5 for pair in fed)

        rebel_exit_canonical = render_plan(parse_plan_text(REBEL_EXIT))
        revisions = [
            text
            for r in records
            if r["agent"] == "prof_conformist" and r["step"] == "SelCs"
            for text in r["payload"].get("revised", ())
        ]
        assert rebel_exit_canonical in revisions

        # (d) after some tick T both professors comply at every entry and
        # neither walks the campus masked
        masked_ticks = [
            r["tick"]
            for r in records
            if r["step"] == "AsNrDecay"
            and r["agent"] in professors
            and {"in_campus", "wearing_mask"} <= set(r["payload"]["beliefs"])
        ]
        last_break = max(t for t, variant in conf + reb if variant == "break")
        settle = max([last_break, *masked_ticks])
        horizon = meta["meta"]["ticks"]
        assert settle < horizon
        for agent, seq in (("prof_conformist", conf), ("prof_rebel", reb)):
            later = [variant for t, variant in seq if t > settle]
            assert later, f"{agent} keeps entering after the arc settles"
            assert all(variant == "comply" for variant in later)


# ----------------------------------------------------------------------
# 6. determinism of the emitted files


def test_criterion_6_deterministic_artifacts(tmp_path):
    with criterion(6, "byte-identical reruns", budget=10.0):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["run", "mask", "--out", str(out)]) == 0
            outputs.append(
                (
                    (out / "metrics.csv").read_bytes(),
                    (out / "trace.txt").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0], "metrics.csv must be byte-identical"
        assert outputs[0][1] == outputs[1][1], "trace.txt must be byte-identical"
        assert len(outputs[0][0]) > 0 and len(outputs[0][1]) > 0


# ----------------------------------------------------------------------
# 7. step-machine fuzz


def test_criterion_7_step_machine_fuzz():
    with criterion(7, "step-machine fuzz", budget=60.0):
        assert fuzz_step_machine(10_000, seed=777) == 10_000
