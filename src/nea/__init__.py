"""nea: normative-emotional BDI agents.

An agent-definition language with norms, personality and concerns; a
three-cycle reasoning interpreter (normative, affective, temporal dynamics);
and a deterministic multi-agent society harness with a CLI front end.
"""

from pathlib import Path

__version__ = "0.1.0"


def builtin_scenario(name: str) -> Path:
    """Path of a scenario config shipped as package data (e.g. "mask").

    The package is read from the file system, as ``nea run`` reads the
    scenario's program files beside it; ``importlib.resources`` is not
    imported, since on Python 3.12+ it loads ``inspect`` at start-up.
    """
    path = Path(__file__).parent / "scenarios" / name / "scenario.json"
    if not path.is_file():
        raise FileNotFoundError(f"no builtin scenario named {name!r}")
    return path
