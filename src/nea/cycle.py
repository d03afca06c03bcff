"""The interpreter: one reasoning tick = normative pass + affective pass + decay.

The normative pass is a step machine over the labels in ``StepLabel``.  Each
call to ``step`` executes the label the agent is currently at and moves it to
a successor allowed by ``EDGES``:

* the default path visits every label once, in declaration order;
* ``ProcMsg`` jumps straight to ``AffModB`` after consuming a norm-feedback
  reply, so societal responses reach the affective state without waiting for
  plan work;
* ``ExecInt`` jumps to ``AffModB`` after any appraisal-producing step, so the
  emotion lands in memory within the same tick.

The affective pass (``run_affective_cycle``) appraises fresh memory, folds
the agent's own appraisals (``core.SELF_CAUSED``) into the affective state,
revises plans punished by social feedback, and queues coping actions; a
societal response shifted that state when ProcMsg read it.  ``run_decay``
then pulls the affective state toward neutral and erodes the relevance of
unreinforced norms.  ``tick`` strings the three passes together.  The payload of a
step's ``TraceEntry`` appears only in ``trace.jsonl``.  While
``EnvironmentView.payloads`` is off, as on a text run, Perceive skips its
sorted literal lists and ``run_decay`` its payload, and ``_entry`` drops
the small payloads the other steps build.

A feedback record is *settled* once ``detect_social_norm`` flagged no plan
for it that revision would change, and nothing that call read has changed
since: the believed condition literals (the record's present condition
texts that the belief base holds), the plan library
(``AgentConfig.plan_version``, bumped by norm adoption and by each plan
revision), the record's accumulated pair and the deviation threshold.  A
flagged plan that ``revise_plan`` returns unchanged (no avoid literal holds
before the step that completes the condition) is not a revision: SelCs
writes no plan, leaves ``plan_version`` alone and reports nothing for it.
Detection would find nothing new again, so the affective pass skips
settled records.

Most agents of a society have nothing to do on most ticks.  An agent is
*quiet* when ``M.In``, ``C.E``, ``C.I`` and ``Ta.Ub`` are empty, no ``Mem``
entry lies past ``mem_cursor``, this tick's percepts equal its
percept-sourced beliefs, no coping strategy matches sigma and every
feedback record is settled.  Its three passes would change nothing but
``T`` (which Perceive resets), ``Ta.Cs`` (emptied by SelCs), ``ast`` and the
decay, and would emit the fifteen entries of ``_QUIET_ROWS`` (nine of them
``idle``; only the UpAs sigma text varies), then the decay entry.  ``tick``
does just that and returns the agent-tick as one record,
``QuietTick(tick, agent, upas, decay)``: a trace writer renders it from a
template it builds on the agent's first quiet tick and keeps for the run
(``society.write_trace_text``), and ``QuietTick.entries`` (or ``expand``
over a list of entries and records) gives back the sixteen entries.  The
invariant checks read sigma, norm relevance, plan norm ids, ``T.R``/``T.Ap``,
``M.In`` and ``Mem``, none of which an idle step changes, so the one
``check_invariants`` after the reset (named ``Perceive``, as the walk's
first check is) raises exactly when the walk's eleven would.  Every other
agent walks the step machine and runs the full affective pass.
"""

from __future__ import annotations

import itertools

from .affect import (
    affect_decay,
    appraise,
    belief_event,
    believed_condition,
    cope,
    detect_social_norm,
    accumulate_feedback,
    queue_belief_add,
    queue_belief_del,
    revise_plan,
    select_coping,
    sync_beliefs,
    update_affect,
)
from .core import (
    AffectiveStepLabel,
    AffectPair,
    AgentConfig,
    DECAY_STEP,
    Intention,
    MemKind,
    MemoryEvent,
    Message,
    NormativeBelief,
    SELF_CAUSED,
    SOURCE_PERCEPT,
    SOURCE_SELF,
    StepLabel,
    UbEntry,
    UbKind,
    norm_id,
    role_name,
    scalar_mood,
)
from .lang import (
    AgentProgram,
    LangError,
    Literal,
    NormDecl,
    PersonalityDecl,
    StepKind,
    Sym,
    TriggerEvent,
    TriggerKind,
    TriggerType,
    norm_from_literal,
    parse_feedback,
    parse_literal_text,
    render_literal,
    render_plan,
    render_trigger,
)
from .norms import (
    UtilityInputs,
    anticipated_mood,
    choose_variant,
    comply_to_norm,
    compliance_utility,
    eval_percepts,
    gen_norm_plans,
    increment_relevance,
    order_applicable_plans,
    relevance_decay,
    select_intention,
)
from .record import Record

#: Pseudo-recipient for compliance/violation announcements.  The society
#: harness knows an announcement by its norm annotation and hands it to the
#: issuing authority instead of a mailbox; a program's mail to this name is
#: mail to an unknown recipient.
OBSERVER_CHANNEL = "__observers__"

#: Allowed successor labels of the normative step machine.
EDGES: dict[StepLabel, frozenset[StepLabel]] = {
    StepLabel.Perceive: frozenset({StepLabel.ProcMsg}),
    StepLabel.ProcMsg: frozenset({StepLabel.SelEv, StepLabel.AffModB}),
    StepLabel.SelEv: frozenset({StepLabel.RelPl}),
    StepLabel.RelPl: frozenset({StepLabel.ApplPl}),
    StepLabel.ApplPl: frozenset({StepLabel.SelAppl}),
    StepLabel.SelAppl: frozenset({StepLabel.AddIM}),
    StepLabel.AddIM: frozenset({StepLabel.SelInt}),
    StepLabel.SelInt: frozenset({StepLabel.ExecInt}),
    StepLabel.ExecInt: frozenset({StepLabel.ClrInt, StepLabel.AffModB}),
    StepLabel.ClrInt: frozenset({StepLabel.AffModB}),
    StepLabel.AffModB: frozenset({StepLabel.Perceive}),
}

#: Execution order of the affective pass.
AST_ORDER: tuple[AffectiveStepLabel, ...] = (
    AffectiveStepLabel.Appr,
    AffectiveStepLabel.UpAs,
    AffectiveStepLabel.SelCs,
    AffectiveStepLabel.Cope,
)


class InterpreterFault(RuntimeError):
    """An interpreter invariant was violated; carries agent id and step, and
    the tick once the society harness has seen the fault."""

    tick: int | None = None

    def __init__(self, agent_id: str, step: str, reason: str) -> None:
        super().__init__(f"[{agent_id} @ {step}] {reason}")
        self.agent_id = agent_id
        self.step = step
        self.reason = reason


def _whole_society(roles) -> float:
    return 1.0


class EnvironmentView(Record):
    """What one agent can see of the world during a single tick, and the
    run's parameters; the society builds one per run.

    ``fraction`` maps a norm's affected-roles spec ("ALL" or a role tuple)
    to the fraction of society holding one of those roles; by default the
    whole society counts as affected.  ``norms`` maps each norm text the
    run's agents perceived or were told to its ``(NormDecl, id)``, built
    once for every agent adopting that norm (see ``_adopt_literal``).
    ``payloads``: whether trace entries carry payloads; ``nea run`` turns
    it off for a text trace, which prints none, and a sinkless run keeps it.
    """

    _fields = (
        "tick", "n_agents", "percepts", "fraction", "relevance_threshold", "relevance_weight",
        "delta", "decay_affect", "decay_relevance", "deviation_threshold",
    )
    __slots__ = _fields + ("norms", "payloads")

    def __init__(
        self, tick: int = 0, n_agents: int = 1, percepts: set | None = None, fraction=_whole_society,
        relevance_threshold: float = 25.0, relevance_weight: float = 1.0, delta: float = 0.1,
        decay_affect: float = 0.05, decay_relevance: float = 0.05, deviation_threshold: AffectPair = (0.5, 0.5),
    ) -> None:
        self.tick, self.n_agents = tick, n_agents
        self.percepts = set() if percepts is None else percepts
        self.fraction = fraction  # callable: roles-spec -> float
        self.relevance_threshold, self.relevance_weight, self.delta = relevance_threshold, relevance_weight, delta
        self.decay_affect, self.decay_relevance = decay_affect, decay_relevance
        self.deviation_threshold = deviation_threshold
        self.norms: dict[str, tuple[NormDecl, str]] = {}
        self.payloads = True


class TraceEntry(Record):
    """One executed step, for the run trace; its *payload*, written only to
    ``trace.jsonl``, is empty while ``EnvironmentView.payloads`` is off."""

    __slots__ = _fields = ("tick", "agent", "step", "summary", "payload")

    def __init__(self, tick: int, agent: str, step: str, summary: str, payload: dict | None = None) -> None:
        self.tick, self.agent, self.step, self.summary = tick, agent, step, summary
        self.payload = {} if payload is None else payload


def _entry(agent: AgentConfig, env: EnvironmentView, name: str, summary: str, payload: dict | None = None) -> TraceEntry:
    return TraceEntry(env.tick, agent.id, name, summary, payload if env.payloads else None)


# ----------------------------------------------------------------------
# normative pass: one function per step label


def _adopt_norm(agent: AgentConfig, decl: NormDecl, nid: str) -> str | None:
    """Adopt *decl* under its id *nid*, whether declared, perceived or told:
    the agent's own ``NormativeBelief``, the comply/break variants after the
    plans held and a ``plan_version`` bump.  None when already held."""
    if agent.find_norm(nid) is not None:
        return None
    nb = NormativeBelief.from_decl(decl, nid)
    agent.NB.append(nb)
    gen_norm_plans(agent.ps, nb)
    agent.plan_version += 1
    return nid


def _adopt_literal(agent: AgentConfig, env: EnvironmentView, lit: Literal, step: str, fault: str) -> str | None:
    """Adopt the norm a perceived or told ``norm(...)`` literal declares; a
    malformed one raises the ``InterpreterFault`` at *step* reading *fault*.
    Its ``NormDecl`` and id are built once per run, into ``env.norms``.  The
    key is *lit*'s text, not *lit*: equal literals can render apart (``0.0``
    and ``-0.0``) and so have different ids."""
    if lit.text not in env.norms:
        try:
            decl = norm_from_literal(lit)
        except LangError as exc:
            raise InterpreterFault(agent.id, step, f"{fault}: {exc}") from exc
        env.norms[lit.text] = decl, norm_id(decl)
    return _adopt_norm(agent, *env.norms[lit.text])


def agent_from_program(agent_id: str, program: AgentProgram, *, roles: tuple[str, ...] = ()) -> AgentConfig:
    """Construct the initial configuration: s=Perceive, ast=Appr, sigma=(0,0),
    empty circumstance and memory; beliefs are self-sourced.  The ``norms__``
    entries are adopted in order before tick 0, with no belief or trace entry."""
    agent = AgentConfig(
        id=agent_id,
        bs={lit: {SOURCE_SELF} for lit in program.beliefs},
        ps=list(program.plans),
        cc=program.concerns,
        P=program.personality or PersonalityDecl(),
        roles=tuple(dict.fromkeys((*program.roles, *roles))),
    )
    for decl in program.norms:
        _adopt_norm(agent, decl, norm_id(decl))
    for goal in program.goals:
        agent.C.E.append(TriggerEvent(TriggerKind.ADD, TriggerType.GOAL, goal))
    return agent


def _step_perceive(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    agent.T.reset()
    new_p, rem_p = eval_percepts(env.percepts, agent.percept_literals())
    adopted: list[str] = []
    for lit in sorted(new_p, key=render_literal):
        queue_belief_add(agent, lit, SOURCE_PERCEPT)
        if lit.functor == "norm" and (nid := _adopt_literal(agent, env, lit, "Perceive", "bad norm percept")):
            adopted.append(nid)
    for lit in sorted(rem_p, key=render_literal):
        queue_belief_del(agent, lit, SOURCE_PERCEPT)
    agent.s = StepLabel.ProcMsg
    summary = f"+{len(new_p)}/-{len(rem_p)} percepts"
    if adopted:
        summary += f", adopted {','.join(adopted)}"
    if not env.payloads:
        return _entry(agent, env, "Perceive", summary)
    new, removed = sorted(map(render_literal, new_p)), sorted(map(render_literal, rem_p))
    return _entry(agent, env, "Perceive", summary, {"new": new, "removed": removed, "adopted": adopted})


def _respond(agent: AgentConfig, env: EnvironmentView, kind: MemKind, message: Message, pair: AffectPair) -> None:
    """A societal response: shift sigma by *pair* over the agent count and
    remember it; UpAs leaves it alone."""
    agent.Ta.sigma = update_affect(agent.Ta.sigma, pair, env.n_agents)
    agent.Mem.append(MemoryEvent(env.tick, kind, pair, message.norm, message.sender))


def process_message(
    agent: AgentConfig, message: Message, env: EnvironmentView
) -> tuple[str, StepLabel, dict]:
    """Apply one mailbox message; returns (summary, next step, payload).

    Every message is a Tell.  Three cases:

    * Tell annotated with a norm id — a societal response to this agent's
      own compliance/violation: reinforce the norm, shift the affective
      state by appraisal/n, remember it, and jump to AffModB;
    * Tell whose content is social feedback ``(±lit;...),[p,a]`` — judgment
      of an observed state: accumulate it under its belief condition and
      shift the affective state;
    * Tell with a norm literal — adopt the norm; any other Tell adds the
      content as a belief sourced from the sender.
    """
    content = message.content

    if message.norm is not None:
        nb = agent.find_norm(message.norm)
        if nb is None:
            return f"feedback for unknown norm {message.norm}", StepLabel.SelEv, {}
        before = nb.relevance
        nb.relevance = increment_relevance(nb.relevance, env.n_agents, env.delta)
        pair = message.appraisal or (0.0, 0.0)
        _respond(agent, env, MemKind.NORM_FEEDBACK, message, pair)
        return (
            f"norm feedback {message.norm} rel {before:g}->{nb.relevance:g}",
            StepLabel.AffModB,
            {"norm": message.norm, "pair": list(pair), "relevance": nb.relevance},
        )

    if content.startswith("("):
        condition, pair = parse_feedback(content)
        record = accumulate_feedback(agent.feedback, condition, pair)
        _respond(agent, env, MemKind.SOCIAL_FEEDBACK, message, pair)
        return (
            f"social feedback from {message.sender} acc [{record.accumulated[0]:g},{record.accumulated[1]:g}]",
            StepLabel.SelEv,
            {"accumulated": list(record.accumulated), "count": record.count},
        )

    lit = _content_literal(agent, content)
    if lit.functor == "norm":
        nid = _adopt_literal(agent, env, lit, "ProcMsg", f"bad norm message {content!r}")
        summary, payload = f"norm from {message.sender}: " + (nid or "already held"), {"adopted": nid}
    else:
        summary, payload = f"tell {content} from {message.sender}", {}
    if agent.add_belief(lit, message.sender):
        agent.C.E.append(belief_event(TriggerKind.ADD, lit))
    return summary, StepLabel.SelEv, payload


def _content_literal(agent: AgentConfig, content: str) -> Literal:
    try:
        return parse_literal_text(content)
    except LangError as exc:
        raise InterpreterFault(agent.id, "ProcMsg", f"bad message content {content!r}: {exc}") from exc


def _step_procmsg(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    if not agent.M.In:
        agent.s = StepLabel.SelEv
        return _entry(agent, env, "ProcMsg", "idle")
    message = agent.M.In.pop(0)
    summary, nxt, payload = process_message(agent, message, env)
    agent.s = nxt
    payload["mid"] = message.mid
    return _entry(agent, env, "ProcMsg", summary, payload)


def _step_selev(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    agent.s = StepLabel.RelPl
    if not agent.C.E:
        return _entry(agent, env, "SelEv", "idle")
    agent.T.epsilon = agent.C.E.pop(0)
    return _entry(agent, env, "SelEv", render_trigger(agent.T.epsilon))


def _step_relpl(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    agent.s = StepLabel.ApplPl
    ev = agent.T.epsilon
    if ev is None:
        return _entry(agent, env, "RelPl", "idle")
    agent.T.R = [p for p in agent.ps if p.trigger == ev]
    if not agent.T.R:
        return _entry(agent, env, "RelPl", "no relevant plans; event dropped")
    return _entry(agent, env, "RelPl", f"{len(agent.T.R)} relevant")


def context_holds(agent: AgentConfig, context: tuple) -> bool:
    """A context conjunction holds when every positive literal is believed
    (``role(r)`` checks the agent's roles, see ``core.role_name``) and every
    negated one is not."""
    for cl in context:
        name = role_name(cl.literal)
        held = agent.holds(cl.literal) if name is None else name in agent.roles
        if held == cl.negated:
            return False
    return True


def _step_applpl(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    agent.s = StepLabel.SelAppl
    agent.T.Ap = [p for p in agent.T.R if context_holds(agent, p.context)]
    if agent.T.epsilon is None:
        return _entry(agent, env, "ApplPl", "idle")
    return _entry(agent, env, "ApplPl", f"{len(agent.T.Ap)} applicable")


def _step_selappl(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    agent.s = StepLabel.AddIM
    if not agent.T.Ap:
        return _entry(agent, env, "SelAppl", "idle")

    decisions: dict[str, dict] = {}

    def choose(nb: NormativeBelief) -> str:
        sigma = agent.Ta.sigma
        inputs = UtilityInputs(
            reb=agent.P.rebelliousness,
            frac_affected=env.fraction(nb.roles),
            s=scalar_mood(sigma),
            s_new=anticipated_mood(sigma, nb.pre_appraisal),
            relevance=nb.relevance,
        )
        follow, breach = compliance_utility(inputs, relevance_weight=env.relevance_weight)
        variant = choose_variant(follow, breach)
        decisions[nb.id] = {"comply": follow, "break": breach, "chosen": variant}
        return variant

    agent.T.Ap = order_applicable_plans(agent.T.Ap, agent.NB, agent.cycle, env.relevance_threshold, choose)
    agent.T.rho = agent.T.Ap[0]
    rho = agent.T.rho
    summary = render_trigger(rho.trigger)
    if rho.norm_id and rho.norm_id in decisions:
        summary += f" [{decisions[rho.norm_id]['chosen']}]"
    return _entry(agent, env, "SelAppl", summary, {"decisions": decisions})


def _step_addim(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    agent.s = StepLabel.SelInt
    rho, ev = agent.T.rho, agent.T.epsilon
    if rho is None or ev is None:
        return _entry(agent, env, "AddIM", "idle")
    intent = agent.new_intention(rho)
    agent.C.I.append(intent)
    return _entry(agent, env, "AddIM", f"new intention {intent.iid}")


def _step_selint(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    agent.s = StepLabel.ExecInt
    agent.T.iota = select_intention(agent.C.I, agent.NB, agent.cycle, env.relevance_threshold)
    if agent.T.iota is None:
        return _entry(agent, env, "SelInt", "idle")
    return _entry(agent, env, "SelInt", f"intention {agent.T.iota.iid}")


def _finish_means(agent: AgentConfig, intent: Intention) -> None:
    """Drop the finished intention."""
    if intent in agent.C.I:
        agent.C.I.remove(intent)
    if agent.T.iota is intent:
        agent.T.iota = None


def _rotate(agent: AgentConfig, intent: Intention) -> None:
    if intent in agent.C.I and len(agent.C.I) > 1:
        agent.C.I.remove(intent)
        agent.C.I.append(intent)


def _appraise(agent: AgentConfig, pair: AffectPair, nid: str | None, variant: str | None, payload: dict) -> None:
    """Queue the appraisal *pair* for AffModB and note it in *payload*; one
    attributed to norm *nid* is announced to the observers as *variant*."""
    agent.Ta.Ub.append(UbEntry(UbKind.APPRAISE, pair=pair, norm_id=nid, variant=variant))
    if nid is not None:
        agent.M.Out.append(
            Message(
                mid=-1,
                sender=agent.id,
                content=f'norm_result("{nid}","{variant}")',
                norm=nid,
                recipient=OBSERVER_CHANNEL,
            )
        )
    payload["norm"] = nid
    payload["variant"] = variant


def _step_execint(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    intent = agent.T.iota
    if intent is None:
        agent.s = StepLabel.ClrInt
        return _entry(agent, env, "ExecInt", "idle")

    plan = intent.plan
    if not intent.remaining:
        _finish_means(agent, intent)
        agent.s = StepLabel.ClrInt
        return _entry(agent, env, "ExecInt", f"intention {intent.iid}: plan finished")

    step_ = intent.remaining.pop(0)
    appraised = False
    payload: dict = {"intention": intent.iid}

    if step_.kind is StepKind.ADD:
        queue_belief_add(agent, step_.literal, SOURCE_SELF)
        summary = "+" + render_literal(step_.literal)
    elif step_.kind is StepKind.DEL:
        queue_belief_del(agent, step_.literal, None)
        summary = "-" + render_literal(step_.literal)
    elif step_.kind is StepKind.SEND:
        recipient = step_.recipient.name if isinstance(step_.recipient, Sym) else str(step_.recipient)
        content = render_literal(step_.content)
        agent.M.Out.append(
            Message(mid=-1, sender=agent.id, content=content, recipient=recipient)
        )
        summary = f".sendMsg({recipient}, {content})"
    elif step_.is_affect_update():
        pair = step_.affect_pair()
        _appraise(agent, pair, plan.norm_id, plan.variant, payload)
        appraised = True
        summary = f"affect[{pair[0]:g},{pair[1]:g}]"
    else:  # plain action
        agent.C.A.append(step_.literal)
        summary = render_literal(step_.literal)
        # Attribution: an action can comply with / violate a norm other than
        # the one that generated the executing plan (that norm's own variant
        # already carries its appraisal in the trailing affect step).
        others = [nb for nb in agent.NB if nb.id != plan.norm_id]
        hit = comply_to_norm(step_.literal, others, agent.cycle)
        if hit is not None:
            variant, pair, nb = hit
            _appraise(agent, pair, nb.id, variant, payload)
            appraised = True
            summary += f" [{variant} {nb.id}]"

    if not intent.remaining:
        _finish_means(agent, intent)
    _rotate(agent, intent)

    agent.s = StepLabel.AffModB if appraised else StepLabel.ClrInt
    return _entry(agent, env, "ExecInt", summary, payload)


def _step_clrint(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    agent.s = StepLabel.AffModB
    stale = [i for i in agent.C.I if not i.remaining]
    for intent in stale:
        _finish_means(agent, intent)
    if not stale:
        return _entry(agent, env, "ClrInt", "idle")
    return _entry(agent, env, "ClrInt", f"cleared {len(stale)}")


def _step_affmodb(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    changes = sync_beliefs(agent, env.tick)
    agent.s = StepLabel.Perceive
    summary = f"+{len(changes['added'])}/-{len(changes['removed'])} beliefs"
    if changes["appraised"]:
        summary += f", {len(changes['appraised'])} appraisals"
    return _entry(agent, env, "AffModB", summary, changes)


#: label -> (step function, allowed successors), one lookup per step.  The
#: successors are a tuple: membership tests compare enum members by
#: identity instead of hashing them.
_STEPS = {
    label: (func, tuple(EDGES[label]))
    for label, func in (
        (StepLabel.Perceive, _step_perceive),
        (StepLabel.ProcMsg, _step_procmsg),
        (StepLabel.SelEv, _step_selev),
        (StepLabel.RelPl, _step_relpl),
        (StepLabel.ApplPl, _step_applpl),
        (StepLabel.SelAppl, _step_selappl),
        (StepLabel.AddIM, _step_addim),
        (StepLabel.SelInt, _step_selint),
        (StepLabel.ExecInt, _step_execint),
        (StepLabel.ClrInt, _step_clrint),
        (StepLabel.AffModB, _step_affmodb),
    )
}


def step(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    """Execute the label the agent is at; advance to an allowed successor."""
    label = agent.s
    func, successors = _STEPS[label]
    entry = func(agent, env)
    if agent.s not in successors:
        raise InterpreterFault(agent.id, label.value, f"illegal transition to {agent.s.value}")
    check_invariants(agent, label)
    return entry


def _walk(agent: AgentConfig, env: EnvironmentView) -> list[TraceEntry]:
    """The normative pass through the step machine, Perceive to AffModB."""
    entries: list[TraceEntry] = []
    for guard in itertools.count():
        if guard > len(EDGES):
            raise InterpreterFault(agent.id, agent.s.value, "normative pass did not terminate")
        label = agent.s
        entries.append(step(agent, env))
        if label is StepLabel.AffModB:
            break
    return entries


#: The fifteen entries a quiet agent-tick emits before its decay entry, as
#: (step, summary, payload keys): the walk's eleven (nine of them idle),
#: then the affective pass's four.  Each payload key holds a fresh empty
#: list; the UpAs summary (None here) reports sigma.
_QUIET_ROWS = (
    ("Perceive", "+0/-0 percepts", ("new", "removed", "adopted")),
    *((label.value, "idle", ()) for label in tuple(StepLabel)[1:-1]),
    ("AffModB", "+0/-0 beliefs", ("added", "removed", "appraised")),
    ("Appr", "0/0 appraised", ()),
    ("UpAs", None, ()),
    ("SelCs", "0 coping", ("revised",)),
    ("Cope", "0 coping intentions", ()),
)


# ----------------------------------------------------------------------
# affective pass


def _feedback_stamp(agent: AgentConfig, record, texts: frozenset, env: EnvironmentView) -> tuple:
    """Everything ``detect_social_norm`` reads for *record*: the believed
    condition literals, the plan library (by version), the accumulated
    feedback and the deviation threshold."""
    return (
        believed_condition(record, texts),
        agent.plan_version,
        record.accumulated,
        env.deviation_threshold,
    )


def sigma_text(sig: AffectPair) -> str:
    """The affective state as the UpAs and decay summaries show it."""
    return f"sigma [{sig[0]:.3f},{sig[1]:.3f}]"


def upas_summary(applied: int, sig: AffectPair) -> str:
    return f"{applied} applied, {sigma_text(sig)}"


def run_affective_cycle(agent: AgentConfig, env: EnvironmentView) -> list[TraceEntry]:
    """Appr -> UpAs -> SelCs -> Cope over memory entries not yet appraised.

    ``Mem`` is append-only and nothing appends to it during this pass, so
    the entries not yet appraised are those from ``agent.mem_cursor`` on.
    """
    entries: list[TraceEntry] = []
    batch = agent.Mem[agent.mem_cursor:]
    agent.mem_cursor = len(agent.Mem)

    # Appr: derive appraisal variables from fresh memory.
    agent.ast = AffectiveStepLabel.Appr
    appraised_n = 0
    for ev in batch:
        av = appraise(ev)
        if av is not None:
            agent.Ta.Av = av
            appraised_n += 1
    entries.append(_entry(agent, env, "Appr", f"{appraised_n}/{len(batch)} appraised"))

    # UpAs: fold the agent's own appraisals into the affective state (a
    # societal response shifted it when ProcMsg read it).
    agent.ast = AffectiveStepLabel.UpAs
    applied_n = 0
    for ev in batch:
        if ev.kind in SELF_CAUSED:
            agent.Ta.sigma = update_affect(agent.Ta.sigma, ev.pair, 1)
            applied_n += 1
    entries.append(_entry(agent, env, "UpAs", upas_summary(applied_n, agent.Ta.sigma)))

    # SelCs: revise plans punished by accumulated social feedback (a settled
    # record is skipped: detection would flag nothing again), then pick the
    # coping strategies matching the current affective state.
    agent.ast = AffectiveStepLabel.SelCs
    revised: list[str] = []
    texts = agent.belief_text_set() if agent.feedback else frozenset()
    for record in agent.feedback.values():
        stamp = _feedback_stamp(agent, record, texts, env)
        if record.settled == stamp:
            continue
        changed = False
        for plan in detect_social_norm(record, agent.ps, texts, env.deviation_threshold):
            replacement = revise_plan(plan, record, texts)
            if replacement == plan:  # no avoid literal to delete: not a revision
                continue
            agent.ps[agent.ps.index(plan)] = replacement
            agent.plan_version += 1
            revised.append(render_plan(replacement))
            changed = True
        record.settled = None if changed else stamp
    agent.Ta.Cs = select_coping(agent.P.coping, agent.Ta.sigma)
    summary = f"{len(agent.Ta.Cs)} coping"
    if revised:
        summary += f", revised {len(revised)} plan(s)"
    entries.append(_entry(agent, env, "SelCs", summary, {"revised": revised}))

    # Cope: queue one intention per selected coping action.
    agent.ast = AffectiveStepLabel.Cope
    added = cope(agent.Ta.Cs, agent)
    entries.append(_entry(agent, env, "Cope", f"{len(added)} coping intentions"))

    agent.ast = AffectiveStepLabel.Appr
    return entries


# ----------------------------------------------------------------------
# temporal-dynamics pass


def run_decay(agent: AgentConfig, env: EnvironmentView) -> TraceEntry:
    """Affect decays toward neutral; unreinforced norm relevance erodes."""
    agent.Ta.sigma = affect_decay(agent.Ta.sigma, env.decay_affect)
    relevance_decay(agent.NB, agent.Mem, env.decay_relevance, tick=env.tick)
    sig = agent.Ta.sigma
    payload = {
        "sigma": [sig[0], sig[1]],
        "relevance": {nb.id: nb.relevance for nb in agent.NB},
        "beliefs": list(agent.belief_texts()),
        "feedback": {rec.text: list(rec.accumulated) for rec in agent.feedback.values()},
    } if env.payloads else None
    return _entry(agent, env, DECAY_STEP, sigma_text(sig), payload)


# ----------------------------------------------------------------------
# one full tick


def _quiet(agent: AgentConfig, env: EnvironmentView) -> bool:
    """Nothing to perceive, read, execute, sync, appraise, revise or cope
    with this tick (see the module docstring); cheapest checks first."""
    if agent.M.In or agent.C.E or agent.C.I or agent.Ta.Ub or agent.mem_cursor != len(agent.Mem):
        return False
    if env.percepts != agent.percept_literals():
        return False
    if agent.P.coping and select_coping(agent.P.coping, agent.Ta.sigma):
        return False
    if agent.feedback:
        texts = agent.belief_text_set()
        for record in agent.feedback.values():
            if record.settled != _feedback_stamp(agent, record, texts, env):
                return False
    return True


class QuietTick(Record):
    """A quiet agent-tick, in place of its sixteen entries: the fifteen of
    ``_QUIET_ROWS`` (*upas* is the UpAs summary) and the *decay* entry."""

    __slots__ = _fields = ("tick", "agent", "upas", "decay")

    def __init__(self, tick: int, agent: str, upas: str, decay: TraceEntry) -> None:
        self.tick, self.agent, self.upas, self.decay = tick, agent, upas, decay

    def entries(self) -> list[TraceEntry]:
        """The sixteen entries this record stands for, with fresh payloads."""
        entries = [
            TraceEntry(
                self.tick, self.agent, step, self.upas if summary is None else summary, {key: [] for key in keys}
            )
            for step, summary, keys in _QUIET_ROWS
        ]
        entries.append(self.decay)
        return entries


def expand(items: list[TraceEntry | QuietTick]) -> list[TraceEntry]:
    """Trace entries and quiet-tick records, as plain entries."""
    entries: list[TraceEntry] = []
    for item in items:
        if isinstance(item, QuietTick):
            entries.extend(item.entries())
        else:
            entries.append(item)
    return entries


def tick(agent: AgentConfig, env: EnvironmentView) -> tuple[list[TraceEntry | QuietTick], list[Message]]:
    """Run one complete reasoning tick; returns (trace items, outbound).

    The normative pass starts at Perceive and runs until AffModB completes;
    the affective pass and the decay step follow.  The trace items are the
    tick's entries, or one ``QuietTick`` for a quiet agent, which skips
    the passes (see the module docstring; ``expand`` turns either into
    entries).  Outbound messages are drained from the mailbox for the
    harness to deliver.
    """
    if agent.s is not StepLabel.Perceive:
        raise InterpreterFault(agent.id, agent.s.value, "tick must start at Perceive")
    if _quiet(agent, env):  # what the three passes do to a quiet agent
        agent.T.reset()
        check_invariants(agent, StepLabel.Perceive)
        agent.Ta.Cs = []
        agent.ast = AffectiveStepLabel.Appr
        upas = upas_summary(0, agent.Ta.sigma)
        items: list = [QuietTick(env.tick, agent.id, upas, run_decay(agent, env))]
    else:
        items = _walk(agent, env)
        items.extend(run_affective_cycle(agent, env))
        items.append(run_decay(agent, env))
    agent.cycle += 1
    outbound = agent.M.Out
    agent.M.Out = []
    return items, outbound


# ----------------------------------------------------------------------
# invariants


def _fault(agent: AgentConfig, at: StepLabel | str, reason: str) -> InterpreterFault:
    return InterpreterFault(agent.id, at.value if isinstance(at, StepLabel) else at, reason)


def check_invariants(agent: AgentConfig, at: StepLabel | str) -> None:
    """Raise an ``InterpreterFault`` naming step *at* if any invariant fails.

    Every check runs on every call, in this order; the known norm ids are
    gathered by the relevance loop, and the mid list is built only when
    two or more messages wait.
    """
    sig = agent.Ta.sigma
    if not (-1.0 <= sig[0] <= 1.0 and -1.0 <= sig[1] <= 1.0):
        raise _fault(agent, at, f"affective state out of range: {sig}")
    known = {None}  # the norm ids a plan may carry: none, or a held norm's
    for nb in agent.NB:
        if nb.relevance < 0:
            raise _fault(agent, at, f"negative relevance on {nb.id}")
        known.add(nb.id)
    for plan in agent.ps:
        if plan.norm_id not in known:
            raise _fault(agent, at, f"plan references unknown norm {plan.norm_id}")
    if agent.T.R and agent.T.Ap:
        rel_ids = {id(p) for p in agent.T.R}
        if any(id(p) not in rel_ids for p in agent.T.Ap):
            raise _fault(agent, at, "applicable plans not drawn from relevant plans")
    if len(agent.M.In) >= 2:
        mids = [m.mid for m in agent.M.In if m.mid >= 0]
        if len(mids) != len(set(mids)):
            raise _fault(agent, at, "duplicate message ids in In")
    if len(agent.Mem) >= 2 and agent.Mem[-1].tick < agent.Mem[-2].tick:
        raise _fault(agent, at, "memory ticks not monotone")
