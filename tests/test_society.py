"""Society harness: scenario validation, routing, the observation fabric,
and determinism."""

from __future__ import annotations

import copy
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nea.society
from nea import builtin_scenario
from nea.core import MemKind
from nea.lang import Literal, TriggerEvent, TriggerKind, TriggerType, parse_agent_program
from nea.society import (
    METRICS_COLUMNS,
    REQUIRED,
    SCHEMA,
    PerceptPulse,
    ScenarioConfig,
    ScenarioError,
    Society,
    _text_line,
    fraction_affected,
    society_mood,
    write_trace_meta,
    write_trace_structured,
    write_trace_text,
)
from nea.cycle import OBSERVER_CHANNEL, EnvironmentView, InterpreterFault, QuietTick, TraceEntry, expand

from conftest import MASK_NORM_TEXT, PATROL_SOURCE, build_agent

MINI = {
    "name": "mini",
    "ticks": 4,
    "seed": 3,
    "agents": [{"id": "a", "program": "standby.\n"}],
}


def raw(**overrides) -> dict:
    merged = {**MINI, "agents": [dict(spec) for spec in MINI["agents"]]}
    merged.update(overrides)
    return merged


def mask_config() -> ScenarioConfig:
    return ScenarioConfig.load(builtin_scenario("mask"))


# ----------------------------------------------------------------------
# scenario validation


def test_scenario_loads_builtin():
    config = mask_config()
    assert config.name == "mask"
    assert config.ticks == 300
    assert [spec["id"] for spec in config.agents] == [
        "rectorate",
        "prof_conformist",
        "prof_rebel",
        "student_a",
        "student_b",
    ]
    assert config.observation.authority == "rectorate"
    assert config.observation.pair == (-0.3, -0.1)


@pytest.mark.parametrize(
    "broken, message",
    [
        ({"ticks": None}, "missing 'ticks'"),
        ({"agents": []}, "declares no agents"),
        ({"agents": "nope"}, "must be list"),
        ({"agents": [{"id": "a"}]}, "needs an id and a program"),
        (
            {"agents": [{"id": "a", "program": "x.\n"}, {"id": "a", "program": "y.\n"}]},
            "duplicate agent id",
        ),
        ({"percepts": [{"agents": ["ghost"], "literal": "x", "at": 1}]}, "unknown agents"),
        ({"percepts": [{"agents": ["a"], "literal": "x"}]}, "needs 'at'"),
        (
            {"percepts": [{"agents": ["a"], "literal": "x", "from": 0, "period": 0}]},
            "period must be positive",
        ),
        ({"observation": {"authority": "ghost"}}, "not an agent"),
        (
            {"observation": {"feedback": {"observers": ["ghost"], "condition": ["x"]}}},
            "not an agent",
        ),
        ({"observation": {"reactions": {"comply": [0.6]}}}, "reactions.comply' must be a pair"),
        ({"observation": {"feedback": {"pair": [0.1, 0.2, 0.3]}}}, "feedback.pair' must be a pair"),
        ({"params": {"deviation_threshold": ["a", 0.5]}}, "deviation_threshold' must be a pair"),
        ({"agents": [{"id": 7, "program": "x.\n"}]}, "'agents\\[0\\].id' must be a string, got 7"),
        (
            {"observation": {"feedback": {"condition": ["wearing_mask"]}}},
            "'observation.feedback.condition\\[0\\]' 'wearing_mask' is not public",
        ),
        (
            {"observation": {"public": ["in_campus"], "feedback": {"condition": ["in_campus", "wearing_mask"]}}},
            "'observation.feedback.condition\\[1\\]' 'wearing_mask' is not public",
        ),
        (
            {"observation": {"public": ["x"], "feedback": {"condition": ["x("]}}},
            "'observation.feedback.condition\\[0\\]' 'x\\(':",
        ),
        (
            {"observation": {"public": ["x"], "feedback": {"condition": [3]}}},
            "'observation.feedback.condition\\[0\\]' must be a string, got 3",
        ),
        ({"ticks": -3}, "'ticks' must not be negative"),
        ({"ticks": True}, "'ticks' must be an integer"),
        ({"seed": "abc"}, "'seed' must be an integer"),
        ({"seed": 1.5}, "'seed' must be an integer"),
        ({"params": {"delta": "abc"}}, "'params.delta' must be a number"),
        ({"params": {"decay_relevance": None}}, "'params.decay_relevance' must be a number"),
        ({"params": [0.1]}, "'params' must be an object"),
        ({"percepts": [{"agents": ["a"], "at": 1}]}, "'percepts\\[0\\].literal' must be a string"),
        ({"percepts": [{"agents": ["a"], "literal": "x("}]}, "'percepts\\[0\\].literal' 'x\\(':"),
        ({"percepts": ["x"]}, "'percepts\\[0\\]' must be an object"),
        ({"percepts": [{"agents": ["a"], "literal": "x", "at": "3"}]}, "'percepts\\[0\\].at' must be an integer"),
        (
            {"percepts": [{"agents": ["a"], "literal": "x", "from": 1.5, "period": 4}]},
            "'percepts\\[0\\].from' must be an integer",
        ),
        (
            {"percepts": [{"agents": ["a"], "literal": "x", "from": 0, "period": "24"}]},
            "'percepts\\[0\\].period' must be an integer",
        ),
        ({"percepts": {"a": 1}}, "'percepts' must be a list"),
        ({"percepts": [{"agents": "a", "literal": "x", "at": 1}]}, "'percepts\\[0\\].agents' must be a list"),
        ({"agents": [{"id": "a", "program": 5}]}, "'agents\\[0\\].program' must be a string"),
        ({"agents": [{"id": "a", "program": "x.\n", "roles": [1]}]}, "'agents\\[0\\].roles' must be a list of strings"),
        ({"observation": "x"}, "'observation' must be an object"),
        ({"observation": {"feedback": []}}, "'observation.feedback' must be an object"),
        ({"observation": {"reactions": [[0.6, 0.2]]}}, "'observation.reactions' must be an object"),
        ({"observation": {"public": "x"}}, "'observation.public' must be a list"),
        ({"observation": {"feedback": {"observers": "a"}}}, "'observation.feedback.observers' must be a list"),
        ({"observation": {"feedback": {"condition": "x"}}}, "'observation.feedback.condition' must be a list"),
        ({"params": {"delta": float("nan")}}, "'params.delta' must be a number, got nan"),
        ({"params": {"decay_affect": float("inf")}}, "'params.decay_affect' must be a number, got inf"),
        ({"params": {"relevance_weight": 10**400}}, "'params.relevance_weight' must be a number"),
        ({"observation": {"reactions": {"comply": [float("-inf"), 0.1]}}}, "reactions.comply' must be a pair"),
        ({"params": {"deviation_threshold": [0.5, float("nan")]}}, "deviation_threshold' must be a pair"),
        ({"observation": {"authority": []}}, "'observation.authority' must be a string, got \\[\\]"),
        (5, "scenario must be a JSON object, got 5"),
        (None, "scenario must be a JSON object, got None"),
        ({"agents": [{"id": "a", "program": "missing.nea"}]}, "'agents\\[0\\].program': .*missing.nea"),
        ({"agents": [{"id": "a", "program": "bad\0.nea"}]}, "'agents\\[0\\].program': "),
        ({"agents": [{"id": "ALL", "program": "x.\n"}]}, "'agents\\[0\\].id' 'ALL' names every agent"),
        (
            {"percepts": [{"agents": ["a"], "literal": 'norm("obligation", 1)', "at": 1}]},
            "'percepts\\[0\\].literal' .*takes 6 arguments",
        ),
        ({"name": ["mask"]}, "'name' must be a string, got \\['mask'\\]"),
        (
            {"agents": [{"id": "__observers__", "program": "x.\n"}]},
            "'agents\\[0\\].id' '__observers__' is the announcement channel",
        ),
        (
            {"observation": {"public": ["x"], "feedback": {"condition": ["x", "x(1)"]}}},
            "'observation.feedback.condition\\[1\\]' 'x\\(1\\)' must be a bare name",
        ),
        (
            {"params": {"decay_afect": 0.1}},
            "'params.decay_afect' is not a parameter \\(one of delta, relevance_weight, "
            "relevance_threshold, decay_affect, decay_relevance, deviation_threshold\\)",
        ),
        ({"params": {"decay_affect": 3}}, "'params.decay_affect' must lie in \\[0, 1\\], got 3"),
        ({"params": {"decay_affect": -1}}, "'params.decay_affect' must lie in \\[0, 1\\], got -1"),
        ({"params": {"decay_relevance": -0.5}}, "'params.decay_relevance' must not be negative, got -0.5"),
        (
            {"percept": [{"agents": ["a"], "literal": "x", "at": 1}]},
            "'percept' is not a key \\(one of ticks, agents, name, seed, percepts, observation, params\\)",
        ),
        (
            {"agents": [{"id": "a", "program": "x.\n", "role": ["professor"]}]},
            "'agents\\[0\\].role' is not a key \\(one of id, program, roles\\)",
        ),
        (
            {"percepts": [{"agents": ["a"], "literal": "x", "from": 0, "periode": 4}]},
            "'percepts\\[0\\].periode' is not a key \\(one of agents, literal, at, from, period\\)",
        ),
        (
            {"observation": {"feedbak": {}}},
            "'observation.feedbak' is not a key \\(one of public, authority, reactions, feedback\\)",
        ),
        (
            {"observation": {"feedback": {"target_roles": ["professor"]}}},
            "'observation.feedback.target_roles' is not a key \\(one of observers, condition, pair, targets_roles\\)",
        ),
        (
            {"observation": {"reactions": {"brake": [-0.6, -0.2]}}},
            "'observation.reactions.brake' is not a key \\(one of comply, break\\)",
        ),
        ({"agents": [{"id": "stu\tdent", "program": "x.\n"}]}, "'agents\\[0\\].id' must be non-empty and printable"),
        ({"agents": [{"id": "stu\ndent", "program": "x.\n"}]}, "'agents\\[0\\].id' must be non-empty and printable"),
        ({"agents": [{"id": "", "program": "x.\n"}]}, "'agents\\[0\\].id' must be non-empty and printable"),
        (
            {"percepts": [{"agents": ["a"], "literal": "x", "at": 1, "from": 0, "period": 4}]},
            "'percepts\\[0\\]': a percept pulse takes 'at' or 'from'\\+'period', not both",
        ),
        (
            {"percepts": [{"agents": ["a"], "literal": "x", "at": 1, "period": 0}]},
            "'percepts\\[0\\].period': a percept period must be positive",
        ),
        ({"percepts": [{"agents": ["a"], "literal": "x", "at": -3}]}, "'percepts\\[0\\].at' must not be negative"),
    ],
    ids=[
        "broken0-missing 'ticks'",
        "broken1-declares no agents",
        "broken2-must be list",
        "broken3-needs an id and a program",
        "broken4-duplicate agent id",
        "broken5-unknown agents",
        "broken6-needs 'at'",
        "broken7-period must be positive",
        "broken8-not an agent",
        "broken9-not an agent",
        "broken10-reactions.comply' must be a pair",
        "broken11-feedback.pair' must be a pair",
        "broken12-deviation_threshold' must be a pair",
        "broken13-must be a string",
        "broken14-is not public",
        "broken15-'wearing_mask' is not public",
        "broken16-condition 'x\\(':",
        "broken17-must be a string",
        "broken18-'ticks' must not be negative",
        "broken19-'ticks' must be an integer",
        "broken20-'seed' must be an integer",
        "broken21-'seed' must be an integer",
        "broken22-'params.delta' must be a number",
        "broken23-'params.decay_relevance' must be a number",
        "broken24-'params' must be an object",
        "broken25-'percepts\\[0\\].literal' must be a string",
        "broken26-'percepts\\[0\\].literal' 'x\\(':",
        "broken27-'percepts\\[0\\]' must be an object",
        "broken28-'percepts\\[0\\].at' must be an integer",
        "broken29-'percepts\\[0\\].from' must be an integer",
        "broken30-'percepts\\[0\\].period' must be an integer",
        "broken31-'percepts' must be a list",
        "broken32-'percepts\\[0\\].agents' must be a list",
        "broken33-'agents\\[0\\].program' must be a string",
        "broken34-'agents\\[0\\].roles' must be a list of strings",
        "broken35-'observation' must be an object",
        "broken36-'observation.feedback' must be an object",
        "broken37-'observation.reactions' must be an object",
        "broken38-'observation.public' must be a list",
        "broken39-'observation.feedback.observers' must be a list",
        "broken40-'observation.feedback.condition' must be a list",
        "broken41-'params.delta' must be a number, got nan",
        "broken42-'params.decay_affect' must be a number, got inf",
        "broken43-'params.relevance_weight' must be a number",
        "broken44-reactions.comply' must be a pair",
        "broken45-deviation_threshold' must be a pair",
        "broken46-'observation.authority' must be a string, got \\[\\]",
        "5-scenario must be a JSON object, got 5",
        "None-scenario must be a JSON object, got None",
        "broken49-'agents\\[0\\].program': .*missing.nea",
        "broken50-'agents\\[0\\].program': ",
        "broken51-'agents\\[0\\].id' 'ALL' names every agent",
        "broken52-'percepts\\[0\\].literal' .*takes 6 arguments",
        "broken53-'name' must be a string, got \\['mask'\\]",
        "broken54-'agents\\[0\\].id' '__observers__' is the announcement channel",
        "broken55-'observation.feedback.condition\\[1\\]' 'x\\(1\\)' must be a bare name",
        "broken56-'params.decay_afect' is not a parameter",
        "decay_affect-above-1",
        "decay_affect-negative",
        "decay_relevance-negative",
        "unknown-key-top-level",
        "unknown-key-agent",
        "unknown-key-percept",
        "unknown-key-observation",
        "unknown-key-feedback",
        "unknown-key-reactions",
        "id-with-tab",
        "id-with-newline",
        "id-empty",
        "pulse-at-with-from-and-period",
        "pulse-at-with-period-0",
        "pulse-at-negative",
    ],
)
def test_scenario_rejections(broken, message, tmp_path):
    if isinstance(broken, dict):  # overrides of MINI; a None value drops the key
        bad = raw(**{k: v for k, v in broken.items() if v is not None})
        if broken.get("ticks", "keep") is None:
            bad.pop("ticks")
    else:  # the whole scenario
        bad = broken
    with pytest.raises(ScenarioError, match=message):
        ScenarioConfig.from_dict(bad, base=tmp_path)


@pytest.mark.parametrize("name, value", [("decay_affect", 0), ("decay_affect", 1), ("decay_relevance", 1.5)])
def test_decay_rates_at_their_bounds_load(name, value):
    assert ScenarioConfig.from_dict(raw(params={name: value})).params == {name: value}


def test_program_file_that_is_not_utf8_is_keyed(tmp_path):
    (tmp_path / "a.nea").write_bytes(b"standby.\n\xff\n")
    with pytest.raises(ScenarioError, match="'agents\\[0\\].program': .*utf-8"):
        ScenarioConfig.from_dict(raw(agents=[{"id": "a", "program": "a.nea"}]), base=tmp_path)


@pytest.mark.parametrize("text", [b'{"name": "\xff"}', b"[" * 100_000 + b"]" * 100_000])
def test_scenario_file_that_does_not_decode_is_keyed(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_bytes(text)
    with pytest.raises(ScenarioError, match="not valid JSON"):
        ScenarioConfig.load(path)


# Values a mutation puts in place of a scenario field: wrong types, bad
# pairs, bad literals, unknown agents, non-finite and oversized numbers.
JUNK_VALUES = [
    None, True, 0, -1, 3, 1.5, 10**400, float("nan"), float("inf"),
    "", "x", "??!", "x(", "norm(", "ghost", "missing.nea", "ALL",
    [], [1], [0.1, 0.2], [0.1, 0.2, 0.3], ["a", 0.5], [[0.6, 0.2]], ["ghost"], ["x", "x"],
    {}, {"a": 1}, {"at": 1}, {"agents": ["ghost"], "literal": "x", "at": 1},
]
JUNK = st.sampled_from(JUNK_VALUES)


def _paths(node, prefix=()):
    """Every (container path, key or index) inside a JSON-like value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from _paths(child, (*prefix, key))


@st.composite
def mutated_mask(draw) -> dict:
    scenario = json.loads(builtin_scenario("mask").read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        where, key = draw(st.sampled_from(list(_paths(scenario))))
        parent = scenario
        for part in where:
            parent = parent[part]
        action = draw(st.sampled_from(("replace", "delete", "append")))
        if action == "delete":
            del parent[key]
        elif action == "append" and isinstance(parent[key], list):
            parent[key].append(copy.deepcopy(draw(JUNK)))
        else:
            parent[key] = copy.deepcopy(draw(JUNK))
    return scenario


def _objects(scenario: dict):
    """Each (object, its key path, its key table) of *scenario* that a table
    of the schema checks."""
    yield scenario, "", SCHEMA["scenario"]
    for path, table in SCHEMA.items():
        node = scenario
        for part in path.split("."):
            node = node.get(part) if isinstance(node, dict) else None
        if isinstance(node, list):
            yield from ((item, f"{path}[{i}]", table) for i, item in enumerate(node))
        elif isinstance(node, dict):
            yield node, path, table


def _rejects(rule, value, key: str) -> bool:
    try:
        rule(copy.deepcopy(value), key)
    except ScenarioError:
        return True
    return False


@st.composite
def schema_broken_mask(draw) -> tuple[dict, str]:
    """The mask scenario with one key broken as the schema reads it: a key
    misspelt, a required key deleted, or a value that the key's rule
    rejects; and the path of that key, which the error must name."""
    scenario = json.loads(builtin_scenario("mask").read_text(encoding="utf-8"))
    obj, path, table = draw(st.sampled_from(list(_objects(scenario))))

    def where(name: str) -> str:
        return f"{path}.{name}" if path else name

    required = [name for name in obj if table[name][1] is REQUIRED]
    action = draw(st.sampled_from(["misspell", "reject", *(["delete"] if required else [])]))
    if action == "misspell":
        spelt = draw(st.sampled_from(sorted(obj)))
        name = spelt[:-1]
        assert name not in table
        obj[name] = obj.pop(spelt)
    elif action == "delete":
        name = draw(st.sampled_from(required))
        del obj[name]
    else:
        name = draw(st.sampled_from(list(table)))
        rejected = [v for v in JUNK_VALUES if _rejects(table[name][0], v, where(name))]
        obj[name] = copy.deepcopy(draw(st.sampled_from(rejected)))
    return scenario, where(name)


@settings(max_examples=300, deadline=None)
@given(scenario=mutated_mask(), broken=schema_broken_mask())
def test_mutated_scenarios_load_or_raise_scenario_error(scenario, broken):
    base = builtin_scenario("mask").parent
    try:
        Society(ScenarioConfig.from_dict(scenario, base=base))
    except ScenarioError:
        pass
    scenario, key = broken
    with pytest.raises(ScenarioError) as exc:
        ScenarioConfig.from_dict(scenario, base=base)
    assert key in str(exc.value)


def _documented_keys(text: str) -> dict:
    """The key tables of docs/scenario.md, by the heading each is under
    (backticks dropped, the top level's read as "scenario"): each row's
    key -> (required, default), as written."""
    tables, heading = {}, None
    for line in text.splitlines():
        if line.startswith("#"):
            heading = line.lstrip("#").strip().strip("`")
            heading = "scenario" if heading == "Top-level keys" else heading
        row = re.match(r"\|\s*`(\w+)`\s*\|\s*(yes|no)\s*\|\s*(.*?)\s*\|", line)
        if row:
            tables.setdefault(heading, {})[row[1]] = (row[2], row[3])
    return tables


def test_scenario_docs_tables_match_the_schema():
    docs = (Path(__file__).parents[1] / "docs" / "scenario.md").read_text(encoding="utf-8")
    expected = {}
    for path, table in SCHEMA.items():
        rows = expected[path] = {}
        for key, (_, default) in table.items():
            if path == "params":  # the schema leaves an unset parameter out: the run's default holds
                default = getattr(EnvironmentView(), key)
            text = "—" if default is None or default is REQUIRED else f"`{json.dumps(default)}`"
            rows[key] = ("yes" if default is REQUIRED else "no", text)
    assert _documented_keys(docs) == expected


def test_scenario_program_paths_need_a_directory():
    bad = raw(agents=[{"id": "a", "program": "missing.nea"}])
    with pytest.raises(ScenarioError, match="scenario directory"):
        ScenarioConfig.from_dict(bad)


def test_scenario_reads_program_files(tmp_path):
    (tmp_path / "a.nea").write_text("standby.\n", encoding="utf-8")
    spec = raw(agents=[{"id": "a", "program": "a.nea"}])
    (tmp_path / "scenario.json").write_text(json.dumps(spec), encoding="utf-8")
    config = ScenarioConfig.load(tmp_path / "scenario.json")
    assert config.agents[0]["program"] == "standby.\n"


def test_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        ScenarioConfig.load(path)


def test_pulse_fires():
    once = PerceptPulse(("a",), Literal("x"), at=3)
    assert once.fires(3) and not once.fires(2) and not once.fires(4)
    periodic = PerceptPulse(("a",), Literal("x"), start=2, period=5)
    assert periodic.fires(2) and periodic.fires(7) and periodic.fires(12)
    assert not periodic.fires(1) and not periodic.fires(3)


# ----------------------------------------------------------------------
# one read and one parse per distinct program

NORMED_PATROL = PATROL_SOURCE + "\nnorms__: { " + MASK_NORM_TEXT + ". }.\n"


def test_agents_from_one_program_share_its_plans_and_own_their_state():
    agents = [{"id": aid, "program": NORMED_PATROL} for aid in ("a", "b")]
    society = Society(ScenarioConfig.from_dict(raw(agents=agents)))
    a, b = society.roster["a"], society.roster["b"]
    own = len(parse_agent_program(NORMED_PATROL).plans)
    assert own == 2 and len(a.ps) == len(b.ps) == own + 2
    # the program's plans are shared; each agent generates its own variants
    assert all(p is q for p, q in zip(a.ps[:own], b.ps[:own], strict=True))
    assert a.ps[own:] == b.ps[own:] and all(p is not q for p, q in zip(a.ps[own:], b.ps[own:], strict=True))
    assert a.NB[0].plan is b.NB[0].plan and a.NB[0] is not b.NB[0]
    before = copy.deepcopy(b)
    a.ps[0] = a.ps[1]  # a revised plan
    a.add_belief(Literal("visitor_on_site"), "self")
    a.C.E.append(TriggerEvent(TriggerKind.ADD, TriggerType.BELIEF, Literal("bell")))
    a.NB[0].relevance -= 1.0  # decay
    assert b == before
    assert b.ps[0] is not b.ps[1] and not b.holds(Literal("visitor_on_site"))


def test_each_society_parses_each_program_text_once(monkeypatch):
    parses = []
    parse = nea.society.parse_agent_program
    monkeypatch.setattr(nea.society, "parse_agent_program", lambda text: parses.append(text) or parse(text))
    texts = [PATROL_SOURCE, "standby.\n", PATROL_SOURCE, PATROL_SOURCE, "standby.\n"]
    config = ScenarioConfig.from_dict(raw(agents=[{"id": f"a{i}", "program": text} for i, text in enumerate(texts)]))
    Society(config)
    assert parses == [PATROL_SOURCE, "standby.\n"]
    Society(config)  # a second society in the same process parses for itself
    assert parses == [PATROL_SOURCE, "standby.\n"] * 2


def test_a_shared_malformed_program_names_its_first_agent_on_every_build():
    agents = [{"id": "ok", "program": "standby."}] + [{"id": f"bad{i}", "program": "+x <- "} for i in range(3)]
    config = ScenarioConfig.from_dict(raw(agents=agents))
    for _ in range(2):  # each build parses its program texts itself
        with pytest.raises(ScenarioError, match=r"^agent 'bad0': 1:"):
            Society(config)


def test_loader_reads_a_shared_program_file_once(tmp_path, monkeypatch):
    (tmp_path / "patrol.nea").write_text(PATROL_SOURCE, encoding="utf-8")
    (tmp_path / "idle.nea").write_text("standby.\n", encoding="utf-8")
    files = ["idle.nea", "patrol.nea", "patrol.nea", "idle.nea", "patrol.nea"]
    reads = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda path, *a, **kw: reads.append(path.name) or read_text(path, *a, **kw))
    agents = [{"id": f"a{i}", "program": name} for i, name in enumerate(files)]
    config = ScenarioConfig.from_dict(raw(agents=agents), base=tmp_path)
    assert reads == ["idle.nea", "patrol.nea"]
    assert [spec["program"] for spec in config.agents] == [
        PATROL_SOURCE if name == "patrol.nea" else "standby.\n" for name in files
    ]
    agents[1]["program"] = agents[3]["program"] = "missing.nea"
    with pytest.raises(ScenarioError, match=r"'agents\[1\]\.program'"):
        ScenarioConfig.from_dict(raw(agents=agents), base=tmp_path)


# ----------------------------------------------------------------------
# roster-level helpers


def test_fraction_affected_counts_role_holders():
    society = Society(mask_config())
    assert fraction_affected(society.roster, "ALL") == 1.0
    assert fraction_affected(society.roster, ("student",)) == 2 / 5
    assert fraction_affected(society.roster, ("professor",)) == 2 / 5
    assert fraction_affected(society.roster, ("authority",)) == 1 / 5
    assert fraction_affected(society.roster, ("nobody",)) == 0.0


def test_society_mood_is_roster_average():
    society = Society(mask_config())
    agents = list(society.roster.values())
    agents[0].Ta.sigma = (0.5, 0.0)
    agents[1].Ta.sigma = (-0.5, 1.0)
    mood = society_mood(society.roster)
    assert mood == (0.0, 0.2)


# ----------------------------------------------------------------------
# routing


def test_broadcast_reaches_everyone_but_the_sender():
    spec = raw(
        ticks=3,
        agents=[
            {"id": "a", "program": "standby.\n\n!go.\n\n+!go <- .sendMsg(ALL, hello)."},
            {"id": "b", "program": "standby.\n"},
            {"id": "c", "program": "standby.\n"},
        ],
    )
    society = Society(ScenarioConfig.from_dict(spec))
    society.run()
    assert not society.roster["a"].holds(Literal("hello"))
    for aid in ("b", "c"):
        agent = society.roster[aid]
        assert agent.holds(Literal("hello"))
        assert agent.bs[Literal("hello")] == {"a"}


def test_direct_message_reaches_one_recipient():
    spec = raw(
        ticks=3,
        agents=[
            {"id": "a", "program": "standby.\n\n!go.\n\n+!go <- .sendMsg(b, hello)."},
            {"id": "b", "program": "standby.\n"},
            {"id": "c", "program": "standby.\n"},
        ],
    )
    society = Society(ScenarioConfig.from_dict(spec))
    society.run()
    assert society.roster["b"].holds(Literal("hello"))
    assert not society.roster["c"].holds(Literal("hello"))


# a program cannot forge a norm announcement: only the norm annotation that
# cycle._appraise sets makes one, so the channel's name is unknown mail
@pytest.mark.parametrize("content", ["hello", 'norm_result("abc","comply")'], ids=["plain", "norm_result"])
@pytest.mark.parametrize("recipient", ["ghost", OBSERVER_CHANNEL])
def test_unknown_recipient_is_an_interpreter_fault(recipient, content):
    program = f"standby.\n\n!go.\n\n+!go <- .sendMsg({recipient}, {content})."
    spec = raw(ticks=2, agents=[{"id": "a", "program": program}, {"id": "auth", "program": "standby.\n"}])
    spec["observation"] = {"authority": "auth", "reactions": {"comply": [0.5, 0.5]}}
    society = Society(ScenarioConfig.from_dict(spec))
    reason = rf"^\[a @ ExecInt\] message to unknown recipient '{recipient}'$"
    with pytest.raises(InterpreterFault, match=reason) as caught:
        society.run()
    assert (caught.value.agent_id, caught.value.step, caught.value.tick) == ("a", "ExecInt", 0)


def test_an_error_inside_a_tick_becomes_a_fault(monkeypatch):
    def broken(agent, env):
        raise KeyError("lost")

    monkeypatch.setattr(nea.society, "agent_tick", broken)
    society = Society(ScenarioConfig.from_dict(raw()))
    with pytest.raises(InterpreterFault, match=r"^\[a @ Perceive\] KeyError: 'lost'$") as caught:
        society.run()
    assert caught.value.tick == 0 and isinstance(caught.value.__cause__, KeyError)


# ----------------------------------------------------------------------
# observation fabric: one judgment per target, read by every observer

FABRIC = {
    "name": "fabric",
    "ticks": 1,
    "agents": [
        {"id": "o1", "program": "standby.\n", "roles": ["student"]},
        {"id": "t1", "program": "standby.\n", "roles": ["professor"]},
        {"id": "o2", "program": "standby.\n", "roles": ["student"]},
        {"id": "bystander", "program": "standby.\n"},
        {"id": "t2", "program": "standby.\n", "roles": ["professor", "tutor"]},
        {"id": "o3", "program": "standby.\n", "roles": ["professor"]},
    ],
    "observation": {
        "public": ["wearing_mask", "in_campus"],
        "feedback": {
            "observers": ["o3", "o1", "o2"],
            "condition": ["wearing_mask", "in_campus"],
            "pair": [-0.3, -0.1],
            "targets_roles": ["professor"],
        },
    },
}


def reference_feedback(society, edge: dict) -> list[tuple[str, str]]:
    """(recipient, sender) of each feedback message, judged per observer."""
    policy = society.config.observation
    wanted = set(policy.target_roles)
    sent = []
    for observer in policy.observers:
        for target_id, target in society.roster.items():
            if target_id == observer or (wanted and not (wanted & set(target.roles))):
                continue
            held = set(target.bs)
            state = all(Literal(text) in held for text in policy.condition)
            if state and not edge.get((observer, target_id), False):
                sent.append((target_id, observer))
            edge[(observer, target_id)] = state
    return sent


def check_fabric_against_reference(observers: list[str]) -> None:
    spec = copy.deepcopy(FABRIC)
    spec["observation"]["feedback"]["observers"] = observers
    society = Society(ScenarioConfig.from_dict(spec))
    # per tick: the agents masked on campus; covers enter, stay, leave and
    # re-enter, an observer that is also watched, and an unwatched agent
    timeline = [
        {"t1"},
        {"t1", "t2", "bystander"},
        {"t2", "o3"},
        {"t1", "t2", "o3"},
        set(),
        {"t1", "o3", "bystander"},
    ]
    edge: dict = {}
    seen_messages = 0
    for now in timeline:
        for aid in ("t1", "t2", "o3", "bystander"):
            agent = society.roster[aid]
            for text in ("wearing_mask", "in_campus"):
                if aid in now:
                    agent.add_belief(Literal(text), "self")
                else:
                    agent.remove_belief(Literal(text))
        expected = reference_feedback(society, edge)
        society._observers_react()
        pending = sorted(
            (m for batch in society._pending.values() for m in batch), key=lambda m: m.mid
        )
        for batch in society._pending.values():
            batch.clear()
        assert [(m.recipient, m.sender) for m in pending] == expected
        assert {m.content for m in pending} <= {"(+wearing_mask;+in_campus),[-0.3,-0.1]"}
        # every observer judges a target alike, so the reference's pair edges
        # collapse to the harness's state per target
        assert society._watched == {target: state for (_, target), state in edge.items()}
        seen_messages += len(pending)
    assert seen_messages == 16


def test_observer_fabric_matches_per_observer_reference():
    check_fabric_against_reference(["o3", "o1", "o2"])


def test_duplicated_observer_sends_once_per_edge():
    # the reference's pair dict sends once per (observer, target) edge
    check_fabric_against_reference(["o3", "o1", "o3", "o2", "o1"])


# ----------------------------------------------------------------------
# observation fabric, on the shipped scenario


def test_authority_answers_announcements():
    society = Society(mask_config())
    society.run(ticks=14)
    rebel = society.roster["prof_rebel"]
    conformist = society.roster["prof_conformist"]

    rebel_replies = [m for m in rebel.Mem if m.kind is MemKind.NORM_FEEDBACK]
    assert rebel_replies, "the rebel's violation draws an authority reply"
    assert rebel_replies[0].source == "rectorate"
    assert rebel_replies[0].pair == (-0.6, -0.2)

    conf_replies = [m for m in conformist.Mem if m.kind is MemKind.NORM_FEEDBACK]
    assert conf_replies, "the conformist's compliance draws an authority reply"
    assert conf_replies[0].pair == (0.6, 0.2)

    # reinforcement moved the norm's relevance by delta/n per reply
    nb = conformist.NB[0]
    assert nb.relevance == pytest.approx(4.0 + len(conf_replies) * (2.0 / 5), abs=0.2)


def test_students_punish_masked_campus_walks_once_per_sighting():
    society = Society(mask_config())
    society.run(ticks=24)
    conformist = society.roster["prof_conformist"]
    social = [m for m in conformist.Mem if m.kind is MemKind.SOCIAL_FEEDBACK]
    assert len(social) == 2, "one edge-triggered judgment per student"
    assert {m.source for m in social} == {"student_a", "student_b"}
    assert all(m.pair == (-0.3, -0.1) for m in social)
    record = next(iter(conformist.feedback.values()))
    assert record.condition == frozenset({("wearing_mask", True), ("in_campus", True)})
    assert record.accumulated == (-0.6, -0.2)
    assert record.count == 2
    # the rebel never walks masked on campus, so it draws no judgment
    rebel = society.roster["prof_rebel"]
    assert not [m for m in rebel.Mem if m.kind is MemKind.SOCIAL_FEEDBACK]


def test_feedback_condition_is_sent_in_canonical_form():
    # "wearing_mask." names the same literal as "wearing_mask"; the wire
    # format carries the canonical text, which the targets can parse
    spec = json.loads(builtin_scenario("mask").read_text(encoding="utf-8"))
    spec["observation"]["feedback"]["condition"] = ["wearing_mask.", "in_campus"]
    society = Society(ScenarioConfig.from_dict(spec, base=builtin_scenario("mask").parent))
    society.run(ticks=24)
    conformist = society.roster["prof_conformist"]
    assert len([m for m in conformist.Mem if m.kind is MemKind.SOCIAL_FEEDBACK]) == 2
    record = next(iter(conformist.feedback.values()))
    assert record.condition == frozenset({("wearing_mask", True), ("in_campus", True)})


def test_percept_pulses_reach_only_their_targets():
    society = Society(mask_config())
    trace, _ = (None, None)
    all_entries = []
    for t in range(6):
        entries, _ = society.run_tick(t)
        all_entries.extend(expand(entries))
    perceive_adds = {
        e.agent
        for e in all_entries
        if e.step == "Perceive" and "enter_classroom" in e.payload.get("new", ())
    }
    assert perceive_adds == {"prof_conformist", "prof_rebel"}


# ----------------------------------------------------------------------
# metrics


def named(rows) -> list[dict]:
    """Metrics rows keyed by column name."""
    return [dict(zip(METRICS_COLUMNS, row)) for row in rows]


def test_metrics_rows_shape():
    society = Society(mask_config())
    result = society.run(ticks=12)
    assert len(result.metrics) == 12 * 5
    for row in result.metrics:
        assert len(row) == len(METRICS_COLUMNS)
    variants = {(r["tick"], r["agent"], r["variant"]) for r in named(result.metrics) if r["variant"]}
    assert (9, "prof_rebel", "break") in variants
    assert (11, "prof_conformist", "comply") in variants
    # students never announce
    assert not [v for v in variants if v[1].startswith("student")]


def test_each_announcement_is_parsed_once(monkeypatch):
    society = Society(mask_config())
    announcements = parses = 0
    agent_tick = nea.society.agent_tick
    parse = nea.society.parse_literal_text

    def counting_tick(agent, env):
        nonlocal announcements
        entries, outbound = agent_tick(agent, env)
        announcements += sum(m.recipient == OBSERVER_CHANNEL for m in outbound)
        return entries, outbound

    def counting_parse(text):
        nonlocal parses
        parses += 1
        return parse(text)

    monkeypatch.setattr(nea.society, "agent_tick", counting_tick)
    monkeypatch.setattr(nea.society, "parse_literal_text", counting_parse)
    result = society.run(ticks=40)
    assert announcements >= 4
    assert parses == announcements
    assert sum(1 for row in named(result.metrics) if row["variant"]) == announcements


# ----------------------------------------------------------------------
# determinism


def run_lines(ticks: int = 40) -> list[str]:
    result = Society(mask_config()).run(ticks=ticks)
    lines = [_text_line(e) + "|" + json.dumps(e.payload, sort_keys=True) for e in result.trace]
    lines += [",".join(map(str, row)) for row in result.metrics]
    return lines


def test_same_seed_is_byte_identical():
    assert run_lines() == run_lines()


def test_seed_override_changes_only_delivery_order():
    base_society, other_society = Society(mask_config()), Society(mask_config(), seed=99)
    base, other = base_society.run(ticks=30), other_society.run(ticks=30)
    # the arc is seed-independent even though batch shuffling differs
    base_variants = [(r["tick"], r["agent"], r["variant"]) for r in named(base.metrics) if r["variant"]]
    other_variants = [(r["tick"], r["agent"], r["variant"]) for r in named(other.metrics) if r["variant"]]
    assert base_variants == other_variants
    assert base_society.seed == 7 and other_society.seed == 99


# ----------------------------------------------------------------------
# writers


def test_structured_trace_carries_meta_header(tmp_path):
    society = Society(mask_config())
    result = society.run(ticks=2)
    path = tmp_path / "trace.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        write_trace_meta(society.meta(2), fh)
        write_trace_structured(result.trace, fh, {})
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["meta"]["scenario"] == "mask"
    assert header["meta"]["seed"] == 7
    first = json.loads(lines[1])
    assert set(first) == {"tick", "agent", "step", "summary", "payload"}


def rendered(write, items) -> str:
    out = io.StringIO()
    write(items, out, {})
    return out.getvalue()


@pytest.mark.parametrize(
    "agent_id",
    ['p "é"\t{x}', "0 applied, sigma [0.000,0.000]", "a1"],
    ids=["quoted", "upas-text", "plain"],
)
def test_quiet_tick_renders_as_its_entries(agent_id):
    """Each writer renders a ``QuietTick`` from its per-agent template byte
    for byte as it renders the record's sixteen entries."""
    for t in (0, 9, 10, 1234):
        agent = build_agent(PATROL_SOURCE, agent_id=agent_id)
        agent.Ta.sigma = (-0.25, 0.5)
        items, _ = nea.society.agent_tick(agent, EnvironmentView(tick=t))
        assert [type(item) for item in items] == [QuietTick]
        busy = TraceEntry(t, agent_id, "ProcMsg", "tell x from y", {"mid": 3})
        for write in (write_trace_text, write_trace_structured):
            assert rendered(write, [busy, *items, busy]) == rendered(write, [busy, *items[0].entries(), busy])


def quiet_ticks(n: int, t: int) -> list[QuietTick]:
    """One ``QuietTick`` at tick *t* for each of *n* agents."""
    upas, decay = "0 applied, sigma [0.000,0.000]", "sigma [0.000,0.000]"
    return [QuietTick(t, f"a{i}", upas, TraceEntry(t, f"a{i}", "AsNrDecay", decay)) for i in range(n)]


@pytest.mark.parametrize("write", [write_trace_text, write_trace_structured], ids=["text", "structured"])
def test_a_trace_builds_each_quiet_template_once(monkeypatch, write):
    """A roster larger than any fixed cache bound, written twice through one
    ``templates`` dict, builds one template per agent."""
    built = []
    template = nea.society._quiet_template
    monkeypatch.setattr(nea.society, "_quiet_template", lambda agent, *a: built.append(agent) or template(agent, *a))
    templates: dict = {}
    for t in (7, 8):
        out = io.StringIO()
        write(quiet_ticks(5000, t), out, templates)
    assert len(built) == len(set(built)) == 5000
    assert out.getvalue() == rendered(write, expand(quiet_ticks(5000, 8)))


#: the ``_json`` accelerator's ``c_make_encoder``, and None as where it is missing
ENCODER_PATHS = (json.encoder.c_make_encoder, None)


def use_payload_encoder(monkeypatch, make) -> None:
    """Rebuild the structured writer's payload encoder with *make* as
    ``json.encoder.c_make_encoder``."""
    monkeypatch.setattr(json.encoder, "c_make_encoder", make)
    monkeypatch.setattr(nea.society, "_encode_payload", nea.society._payload_encoder())


def structured_lines(entries) -> str:
    out = io.StringIO()
    write_trace_structured(entries, out, {})
    return out.getvalue()


def test_structured_lines_match_json_dumps(monkeypatch):
    entries = [
        TraceEntry(0, "a", "Perceive", "idle"),
        TraceEntry(12, "prof_ü", "SelAppl", 'say "hi"\tthen\\go', {"z": [1.5, None], "a": {"k": "é"}}),
        TraceEntry(3, "b", "Decay", "", {"sigma": [0.1, -2e-07], "ok": True}),
        TraceEntry(4, "c", "UpAs", "x", {"zero": -0.0, "big": 2**70, "empty": [{}, [], {"e": []}]}),
    ]
    expected = "".join(
        json.dumps(
            {"tick": e.tick, "agent": e.agent, "step": e.step, "summary": e.summary, "payload": e.payload},
            sort_keys=True,
        )
        + "\n"
        for e in entries
    )
    for make in ENCODER_PATHS:
        use_payload_encoder(monkeypatch, make)
        assert structured_lines(entries) == expected


def test_failed_payload_leaves_the_encoder_usable(monkeypatch):
    for make in ENCODER_PATHS:
        use_payload_encoder(monkeypatch, make)
        inner: dict = {"k": object()}
        with pytest.raises(TypeError, match="not JSON serializable"):
            structured_lines([TraceEntry(0, "a", "ExecInt", "", {"a": inner})])
        inner["k"] = 1  # the same dict, now encodable: no stale circular-reference mark
        assert structured_lines([TraceEntry(0, "a", "ExecInt", "", {"a": inner})]) == (
            '{"agent": "a", "payload": {"a": {"k": 1}}, "step": "ExecInt", "summary": "", "tick": 0}\n'
        )


def test_run_streams_each_tick_to_the_sink():
    batches: list[tuple[list, list]] = []
    result = Society(mask_config()).run(ticks=3, sink=lambda entries, rows: batches.append((expand(entries), rows)))
    assert result.trace == [] and result.metrics == []
    assert [{e.tick for e in entries} for entries, _ in batches] == [{0}, {1}, {2}]
    assert [{row[0] for row in rows} for _, rows in batches] == [{0}, {1}, {2}]
    collected = Society(mask_config()).run(ticks=3)
    assert [e for entries, _ in batches for e in entries] == collected.trace
    assert [row for _, rows in batches for row in rows] == collected.metrics


def test_agent_program_syntax_error_names_the_agent():
    config = mask_config()
    config.agents[3]["program"] += "+broken <- .\n"
    with pytest.raises(ScenarioError, match=r"agent 'student_a': \d+:\d+: "):
        Society(config)
