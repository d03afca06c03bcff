"""Shared fixtures: corpus discovery and small agent builders."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from nea.cycle import agent_from_program
from nea.lang import norm_from_literal, parse_agent_program, parse_literal_text

CORPUS_DIR = Path(__file__).parent / "corpus"

# CI selects this profile with `pytest --hypothesis-profile=ci`; it deepens
# the property tests whose settings leave max_examples to the profile
settings.register_profile("ci", max_examples=200, deadline=None)


def corpus_files() -> list[Path]:
    files = sorted(CORPUS_DIR.glob("*.nea"))
    assert len(files) >= 20, "grammar corpus must stay at 20+ files"
    return files


@pytest.fixture(scope="session")
def corpus() -> list[Path]:
    return corpus_files()


def parse_norm(text: str):
    """The norm declared by the text of a ``norm(...)`` literal."""
    return norm_from_literal(parse_literal_text(text))


def build_agent(source: str, agent_id: str = "a1"):
    """Agent from inline source text."""
    return agent_from_program(agent_id, parse_agent_program(source))


PATROL_SOURCE = """\
in_campus.

+enter_classroom : not in_classroom <-
    -in_campus; +in_classroom; +teach_lesson; -exit_classroom.

+exit_classroom : in_classroom <-
    -in_classroom; +in_campus; +enjoy_freetime; +enter_classroom.

personality__: { [0.5,0.5,0.5,0.5,0.5], 0.8, 0.3 }.

roles__: { professor }.
"""

MASK_NORM_TEXT = (
    'norm("obligation", "np__enter_classroom:role(professor) & not wearing_mask'
    ' <- +wearing_mask.", 0, 50.0, "ALL", [0.5,0.5])'
)
