"""Byte-for-byte reports of the bundled scenarios.

Each file under ``golden/`` is the ``--deterministic`` report of one bundled
scenario.  Any change to a construction, certificate, audit or report field
shows up here as a diff; refactors and kernels must leave them untouched.
To regenerate after an intended output change:

    PYTHONPATH=src python -m treesum.cli run --deterministic \\
        src/treesum/scenarios/NAME.json > tests/golden/NAME.json
"""

from __future__ import annotations

from pathlib import Path

import pytest

from treesum.scenario import (
    RunFlags,
    bundled_scenario_names,
    load_bundled,
    render_report,
    run,
)

GOLDEN = Path(__file__).parent / "golden"


def test_one_golden_report_per_bundled_scenario():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == list(
        bundled_scenario_names()
    )


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_report_matches_golden(name):
    report = run(load_bundled(name), RunFlags(deterministic=True))
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert render_report(report) == want
