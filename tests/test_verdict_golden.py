"""The adversary verdict matrix, pinned byte for byte.

``repro adversary --sim-time 8 --n 4 --json`` writes exactly the bytes
hashed here: every scenario × protocol × seed cell of the default grid
(56 cells, 54 ``safe`` and the two ``forking-attack`` cells against the
insecure protocol ``violation-detected``), with each cell's verdict,
violation kinds, observations and commit-trace SHA-256.  A change to how
safety is checked must leave every verdict and every byte of evidence
untouched; update the value only together with an explanation of what
the model now does differently.
"""

from __future__ import annotations

import hashlib
import json

from repro.adversary.campaign import run_campaign

VERDICT_MATRIX_SHA256 = "19faeb7e771391ce77bcf183d684e6b94c47c378f7fb4c6404e9ad967fbdf444"


def test_verdict_matrix_golden():
    result = run_campaign(n=4, sim_time=8.0)
    summary = result.to_dict()["summary"]
    assert summary["total"] == 56
    assert summary["safe"] == 54
    assert summary["violation-detected"] == 2
    rendered = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    assert hashlib.sha256(rendered.encode()).hexdigest() == VERDICT_MATRIX_SHA256
