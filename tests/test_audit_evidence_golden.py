"""Evidence golden: the full report of every campaign cell that carries windows.

``tests/test_verdict_golden.py`` pins the verdict matrix, which keeps each
cell's verdict, kinds and counts but drops the checker's report.  This
file pins that report too, for the cells whose observations embed
flight-recorder windows (``duplicate-execution`` evidence, ``amnesia``,
``crash-churn``, ``forking-attack`` and ``qc-suppression`` against marlin
and hotstuff at n = 4, seed 1, ``sim_time=8``): the SHA-256 of
``json.dumps(cell, sort_keys=True)`` of what ``_eval_cell`` returns, so
every event of every window, every detail string and the commit-trace
SHA-256 are fixed.  A change to how the online auditor keeps, shares or
renders its evidence must leave every byte untouched; update a row only
together with an explanation of what the run now does differently.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.adversary.campaign import _eval_cell

#: (scenario, protocol) -> (duplicate-execution observations, report SHA-256).
GOLDEN = {
    ("amnesia", "marlin"): (
        96, "db023f7fa9769d1b1b24494fe93530b1bc52081f7f20555c9a0fa5876513f69f"
    ),
    ("amnesia", "hotstuff"): (
        72, "a12361611049dd0d53108d88921b712deb850f14eb87cd131f7836ac6f5fcc5e"
    ),
    ("crash-churn", "marlin"): (
        0, "e8a57bd7a614a9003d0eaf0681e21904cb87779c7709a4664a63de877f6b700c"
    ),
    ("crash-churn", "hotstuff"): (
        72, "8498646f35f82e7c3e1c309fcae5927682c537d388c269c3af42408dcb843c5f"
    ),
    ("forking-attack", "marlin"): (
        96, "ea02c00b3af2741615e88d3202ed15da76384cf5437804337868ab7ca190190f"
    ),
    ("forking-attack", "hotstuff"): (
        0, "f92695bdc647d8ef572aa390f9d23561bd5854bd6ade6310c46ce852a2dfebc7"
    ),
    ("qc-suppression", "marlin"): (
        96, "a26bfbe697a6493664d665521084a4cf3862a20882bab5aa39f0b65d6d86ed41"
    ),
    ("qc-suppression", "hotstuff"): (
        0, "1cf99e76908ddf9f18902d77dcfea3d8df9f10faea5d972468560b6b5a5e12f7"
    ),
}


@pytest.mark.parametrize(("scenario", "protocol"), sorted(GOLDEN))
def test_cell_report_matches_golden(scenario, protocol):
    cell = _eval_cell(
        {"scenario": scenario, "protocol": protocol, "seed": 1, "n": 4, "sim_time": 8.0}
    )
    duplicates, sha = GOLDEN[(scenario, protocol)]
    report = cell["report"]
    assert report["violations"] == []
    kinds = [o["kind"] for o in report["observations"]]
    assert kinds == ["duplicate-execution"] * duplicates
    rendered = json.dumps(cell, sort_keys=True)
    assert hashlib.sha256(rendered.encode()).hexdigest() == sha
