"""The paper's Table 1 claims, asserted once over the pinned counts.

``tests/test_table1_golden.py`` pins the exact cost every protocol
reports at n = 4 and n = 31.  This module runs no simulation: it reads
those pinned rows and checks the shape the paper claims — two-phase
Marlin is cheaper than HotStuff per block, every protocol's steady state
is linear in n, and the view change is linear for Marlin and HotStuff
but quadratic for Fast-HotStuff — plus the phase counts of Table I.
"""

from __future__ import annotations

import pytest

from repro.harness.analytical import TABLE_I
from tests.test_table1_golden import F_VALUES, NORMAL_CASE, PROTOCOLS, VIEW_CHANGE

SMALL, LARGE = F_VALUES  # n = 4 and n = 31
PATHS = ("happy", "unhappy")

#: Above this multiple of the n ratio, a cost grows faster than linearly.
SUPERLINEAR = 1.6

#: Table I's rows for the protocols this repository runs.
MEASURED_ROWS = {
    "HotStuff": "hotstuff",
    "Fast-HotStuff": "fast-hotstuff",
    "Marlin": "marlin",
}


def per_block(protocol: str, f: int, field: str) -> float:
    return float(NORMAL_CASE[protocol, f][field])


def vc_auth_growth(protocol: str, path: str) -> float:
    """View-change authenticator growth from n = 4 to 31, over the n ratio."""
    small = VIEW_CHANGE[protocol, SMALL, path]
    large = VIEW_CHANGE[protocol, LARGE, path]
    growth = large["vc_authenticators"] / small["vc_authenticators"]
    return growth / (large["n"] / small["n"])


@pytest.mark.parametrize("f", F_VALUES)
def test_marlin_cheaper_than_hotstuff_per_block(f):
    for field in ("messages_per_block", "authenticators_per_block"):
        assert per_block("marlin", f, field) < per_block("hotstuff", f, field)
    # Two of HotStuff's three QC rounds: about 5n against 7n messages.
    ratio = per_block("marlin", f, "messages_per_block") / per_block(
        "hotstuff", f, "messages_per_block"
    )
    assert 0.6 < ratio < 0.85


@pytest.mark.parametrize("f", F_VALUES)
def test_chaining_cuts_messages(f):
    def messages(protocol):
        return per_block(protocol, f, "messages_per_block")

    assert messages("chained-marlin") < messages("marlin")
    assert messages("chained-hotstuff") < messages("hotstuff")
    assert min(PROTOCOLS, key=messages) == "chained-marlin"
    # Every protocol ships each block's payload once per replica.
    payload = [per_block(p, f, "bytes_per_block") for p in PROTOCOLS]
    assert max(payload) / min(payload) < 1.1


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_messages_per_block_linear_in_n(protocol):
    small, large = (
        per_block(protocol, f, "messages_per_block") / NORMAL_CASE[protocol, f]["n"]
        for f in F_VALUES
    )
    assert large == pytest.approx(small, rel=0.1)
    theory = {"marlin": 5, "hotstuff": 7}.get(protocol)
    if theory is not None:
        assert small == pytest.approx(theory, rel=0.1)


@pytest.mark.parametrize("path", PATHS)
def test_view_change_authenticators_linear_except_fast_hotstuff(path):
    for protocol in ("marlin", "hotstuff", "insecure"):
        assert vc_auth_growth(protocol, path) < SUPERLINEAR, protocol
    assert vc_auth_growth("fast-hotstuff", path) > SUPERLINEAR
    # At equal n, Marlin's linear view change, even with a PRE-PREPARE,
    # moves fewer bytes than Fast-HotStuff's aggregate.
    for f in F_VALUES:
        marlin = VIEW_CHANGE["marlin", f, "unhappy"]
        fast = VIEW_CHANGE["fast-hotstuff", f, path]
        assert marlin["vc_bytes"] < fast["vc_bytes"]


def test_table_i_linear_flags_match_measurement():
    for row in TABLE_I:
        protocol = MEASURED_ROWS.get(row.protocol)
        if protocol is None:
            continue  # Jolteon and Wendy are analytical rows only
        for path in PATHS:
            assert (vc_auth_growth(protocol, path) < SUPERLINEAR) == row.linear, row


def test_phase_counts():
    expected = {
        ("marlin", "happy"): 2,
        ("marlin", "unhappy"): 3,
        ("chained-marlin", "happy"): 2,
        ("chained-marlin", "unhappy"): 3,
        ("hotstuff", "happy"): 3,
        ("hotstuff", "unhappy"): 3,
        ("chained-hotstuff", "happy"): 3,
        ("chained-hotstuff", "unhappy"): 3,
        ("fast-hotstuff", "happy"): 2,
        ("fast-hotstuff", "unhappy"): 2,
        ("insecure", "happy"): 2,
        ("insecure", "unhappy"): 2,
    }
    for (protocol, path), phases in expected.items():
        for f in F_VALUES:
            assert VIEW_CHANGE[protocol, f, path]["phases_to_commit"] == phases
    for row in TABLE_I:
        protocol = MEASURED_ROWS.get(row.protocol)
        if protocol is not None:
            counts = {str(VIEW_CHANGE[protocol, SMALL, path]["phases_to_commit"]) for path in PATHS}
            assert counts <= set(row.vc_phases.split(" or ")), row
