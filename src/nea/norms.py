"""Norm engine: percept evaluation, norm-plan generation, the comply/break
rule, plan/intention ordering, and norm temporal dynamics.

All functions are pure or mutate only the structures handed to them, so they
can be oracle-tested in isolation from the reasoning cycle.

The comply/break rule is written here once, as ``anticipated_mood``,
``compliance_utility`` and ``choose_variant``; the interpreter's SelAppl
step, ``nea sweep`` and the tests all call these three.
"""

from __future__ import annotations

from .core import AffectPair, Intention, MemKind, NormativeBelief, clamp_pair, scalar_mood
from .lang import AFFECT_FUNCTOR, BodyStep, Literal, PlanDef, StepKind
from .record import Frozen

COMPLY = "comply"
BREAK = "break"


def unexpired(nb: NormativeBelief, cycle: int) -> bool:
    """Limit 0 is unbounded; otherwise a norm expires at its limit cycle."""
    return nb.limit == 0 or cycle < nb.limit


def active(nb: NormativeBelief, cycle: int, threshold: float) -> bool:
    """A norm is active while unexpired and relevant."""
    return unexpired(nb, cycle) and nb.relevance >= threshold


def opp_emotion(pair: AffectPair) -> AffectPair:
    """Componentwise negation; its own inverse."""
    return (-pair[0], -pair[1])


def increment_relevance(relevance: float, n_agents: int, delta: float = 0.1) -> float:
    """Reinforce a norm's relevance from one societal response."""
    return max(relevance + delta / n_agents, 1.0)


def relevance_decay(
    nbs: list[NormativeBelief],
    mem: list,
    rate: float = 0.05,
    *,
    tick: int,
) -> None:
    """Linear per-tick relevance decay, skipping norms reinforced this tick.

    A norm counts as reinforced when a norm-feedback memory event for it was
    recorded at *tick*.  Memory ticks never decrease (``check_invariants``
    holds them to that), so only the tail of *mem* from *tick* on is read.
    """
    reinforced = set()
    for ev in reversed(mem):
        if ev.tick < tick:
            break
        if ev.kind is MemKind.NORM_FEEDBACK and ev.tick == tick and ev.norm_id is not None:
            reinforced.add(ev.norm_id)
    for nb in nbs:
        if nb.id in reinforced:
            continue
        nb.relevance = max(nb.relevance - rate, 0.0)


def eval_percepts(pset: set, percept_beliefs: set) -> tuple[set, set]:
    """Difference the fresh percept set against currently held percepts.

    Returns (NewP, RemP): literals to add and to remove.
    """
    new_p = set(pset) - set(percept_beliefs)
    rem_p = set(percept_beliefs) - set(pset)
    return new_p, rem_p


def affect_step(pair: AffectPair) -> BodyStep:
    """The appraisal-carrying action step appended to generated variants."""
    return BodyStep(StepKind.ACT, Literal(AFFECT_FUNCTOR, (float(pair[0]), float(pair[1]))))


def gen_norm_plans(ps: list, nb: NormativeBelief) -> list:
    """Extend the plan library with the comply/break pair for *nb*.

    The comply variant executes the base body (the first non-variant plan
    with the same trigger, if any), then the norm's own body, then an affect
    step adding the pre-appraisal; the break variant omits the norm body and
    adds the opposite emotion.  Returns the plans added.
    """
    trig = nb.plan.trigger
    base_body: tuple = ()
    for plan in ps:
        if plan.norm_id is None and plan.trigger == trig:
            base_body = plan.body
            break

    comply = PlanDef(
        trigger=trig,
        context=nb.plan.context,
        body=(*base_body, *nb.plan.body, affect_step(nb.pre_appraisal)),
        normative=True,
        norm_id=nb.id,
        variant=COMPLY,
    )
    breach = PlanDef(
        trigger=trig,
        context=nb.plan.context,
        body=(*base_body, affect_step(opp_emotion(nb.pre_appraisal))),
        normative=True,
        norm_id=nb.id,
        variant=BREAK,
    )
    ps.extend((comply, breach))
    return [comply, breach]


# ----------------------------------------------------------------------
# the comply/break rule


def anticipated_mood(sigma: AffectPair, pre_appraisal: AffectPair) -> float:
    """Scalar mood after complying: sigma plus the norm's pre-appraisal, clamped."""
    return scalar_mood(clamp_pair((sigma[0] + pre_appraisal[0], sigma[1] + pre_appraisal[1])))


class UtilityInputs(Frozen):
    """Inputs of the comply/break decision.

    reb — rebelliousness level of the agent, in [0,1];
    frac_affected — fraction of society holding an affected role, in [0,1];
    s — scalar mood now; s_new — ``anticipated_mood`` after compliance;
    relevance — current relevance of the norm (>= 0).
    """

    __slots__ = _fields = ("reb", "frac_affected", "s", "s_new", "relevance")

    def __init__(self, reb: float, frac_affected: float, s: float, s_new: float, relevance: float) -> None:
        _set = object.__setattr__
        _set(self, "reb", reb)
        _set(self, "frac_affected", frac_affected)
        _set(self, "s", s)
        _set(self, "s_new", s_new)
        _set(self, "relevance", relevance)


def compliance_utility(u: UtilityInputs, *, relevance_weight: float = 1.0) -> tuple[float, float]:
    """Scores for following and for breaking a norm.

    comply = (1 - reb) * frac * (s - s_new) + relevance
    break  = reb * (1 - frac) * (s + s_new) - relevance

    ``relevance_weight`` scales the relevance term; 1.0 is the verbatim
    policy, scenario configs may tune it (see the sweep subcommand).
    """
    rel = relevance_weight * u.relevance
    comply = (1.0 - u.reb) * u.frac_affected * (u.s - u.s_new) + rel
    breach = u.reb * (1.0 - u.frac_affected) * (u.s + u.s_new) - rel
    return comply, breach


def choose_variant(follow: float, breach: float) -> str:
    """The variant with the higher score; ties go to comply."""
    return COMPLY if follow >= breach else BREAK


# ----------------------------------------------------------------------
# ordering


def _remaining(nb: NormativeBelief, cycle: int) -> float:
    return float("inf") if nb.limit == 0 else float(nb.limit - cycle)


def order_applicable_plans(
    ap: list,
    nbs: list[NormativeBelief],
    cycle: int,
    threshold: float,
    choose=None,
) -> list:
    """Order applicable plans into the three strata.

    1. plans of active obligations, ascending by remaining cycles (unbounded
       norms last within the stratum);
    2. plans of active prohibitions, likewise;
    3. everything else in communication (input) order — including plans of
       inactive or expired norms and the variant not chosen for each norm.

    ``choose`` maps an active NormativeBelief to the variant ("comply" /
    "break") placed in strata 1-2 when both variants are applicable; the
    default keeps comply.  The result is a permutation of *ap*.
    """
    by_norm: dict[str, NormativeBelief] = {nb.id: nb for nb in nbs}
    chooser = choose or (lambda nb: COMPLY)

    chosen_variant: dict[str, str] = {}
    for plan in ap:
        nid = plan.norm_id
        if nid is None or nid in chosen_variant:
            continue
        nb = by_norm.get(nid)
        if nb is not None and active(nb, cycle, threshold):
            variants = {p.variant for p in ap if p.norm_id == nid}
            if len(variants) > 1:
                chosen_variant[nid] = chooser(nb)
            else:
                chosen_variant[nid] = next(iter(variants))

    obligations: list[tuple[float, int, PlanDef]] = []
    prohibitions: list[tuple[float, int, PlanDef]] = []
    rest: list[PlanDef] = []

    for idx, plan in enumerate(ap):
        nb = by_norm.get(plan.norm_id) if plan.norm_id else None
        if (
            nb is not None
            and active(nb, cycle, threshold)
            and plan.variant == chosen_variant.get(nb.id)
        ):
            entry = (_remaining(nb, cycle), idx, plan)
            if nb.deontic == "obligation":
                obligations.append(entry)
            else:
                prohibitions.append(entry)
        else:
            rest.append(plan)

    obligations.sort(key=lambda e: (e[0], e[1]))
    prohibitions.sort(key=lambda e: (e[0], e[1]))
    return [e[2] for e in obligations] + [e[2] for e in prohibitions] + rest


def select_intention(
    intentions: list[Intention],
    nbs: list[NormativeBelief],
    cycle: int,
    threshold: float,
) -> Intention | None:
    """Normative intentions (plan owned by an active norm) first, then the
    rest; insertion order within each class."""
    by_norm = {nb.id: nb for nb in nbs}
    for intent in intentions:
        if intent.plan.norm_id is None:
            continue
        nb = by_norm.get(intent.plan.norm_id)
        if nb is not None and active(nb, cycle, threshold):
            return intent
    return intentions[0] if intentions else None


def comply_to_norm(
    action: Literal,
    nbs: list[NormativeBelief],
    cycle: int,
) -> tuple[AffectPair, NormativeBelief] | None:
    """Appraisal produced by executing *action* under the adopted norms.

    If the action belongs to an unexpired obligation's normative plan the
    pre-appraisal pair is returned (complying); for an unexpired prohibition
    the opposite emotion (violating).  Expired norms and unattributed actions
    yield None.  Limit 0 is unbounded.
    """
    for nb in nbs:
        if not unexpired(nb, cycle):
            continue
        step_lits = {s.literal for s in nb.plan.body if s.literal is not None}
        if action not in step_lits:
            continue
        if nb.deontic == "obligation":
            return nb.pre_appraisal, nb
        return opp_emotion(nb.pre_appraisal), nb
    return None
