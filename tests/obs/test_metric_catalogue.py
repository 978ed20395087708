"""The metric catalogues name what the code registers.

DESIGN.md §5's catalogue table lists every ``*_total`` counter that
``src/`` registers, and no other; a counter added, renamed or deleted
without its entry fails here.  ``docs/OBSERVABILITY.md`` describes a
subset (in prose, with shared prefixes abbreviated), so every full
counter name it mentions must be registered.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent

#: a counter name in a string literal, f-string templates included.
_REGISTERED = re.compile(r"""["']([a-z][a-z0-9_]*(?:\{[a-z_.]+\}[a-z0-9_]*)*_total)["']""")
#: a counter name in prose.
_MENTIONED = re.compile(r"\b([a-z][a-z0-9_]*_total)\b")


def _compaction_regimes() -> "list[str]":
    """The regimes the KV compaction scheduler tags its tasks with."""
    text = (SRC / "lsm" / "disk" / "scheduler.py").read_text()
    return sorted(set(re.findall(r'regime="([a-z]+)"', text)))


#: template placeholder -> the values it takes.
PLACEHOLDERS = {"task.regime": _compaction_regimes}


def registered() -> "set[str]":
    """Every ``*_total`` name ``src/`` registers, templates expanded."""
    names: "set[str]" = set()
    for path in SRC.rglob("*.py"):
        for name in _REGISTERED.findall(path.read_text()):
            holes = re.findall(r"\{([a-z_.]+)\}", name)
            if not holes:
                names.add(name)
                continue
            assert len(holes) == 1 and holes[0] in PLACEHOLDERS, (
                f"{path}: enumerate the values of {name!r} here"
            )
            for value in PLACEHOLDERS[holes[0]]():
                names.add(name.replace("{" + holes[0] + "}", value))
    return names


def design_catalogue() -> "set[str]":
    text = (ROOT / "DESIGN.md").read_text()
    start = text.index("### Metric catalog")
    end = text.index("\n## ", start)
    return set(_MENTIONED.findall(text[start:end]))


def test_compaction_regimes_are_found():
    assert _compaction_regimes() == ["capacity", "density"]


def test_design_catalogue_matches_the_code():
    code, doc = registered(), design_catalogue()
    assert not code - doc, f"registered but not in DESIGN.md: {code - doc}"
    assert not doc - code, f"in DESIGN.md but not registered: {doc - code}"


def test_observability_names_are_registered():
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    stale = set(_MENTIONED.findall(text)) - registered()
    assert not stale, f"in docs/OBSERVABILITY.md but not registered: {stale}"
