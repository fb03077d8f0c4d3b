"""Audit golden: one fully audited marlin run per Byzantine mode, pinned.

``tests/test_audit.py`` asserts what each :func:`~repro.harness.audit.audited_run`
mode must show (no violation when clean, an equivocation or reply
divergence with a flight-recorder window when attacked).  This file pins
the whole output of each run at n = 4 and ``sim_time=6``: the committed
height and stall verdict, the auditor's report (readable summary plus
the SHA-256 of its JSON), the complexity observatory's snapshot, the
flight events each recorder kept, and the SHA-256 of the black box
``dump="always"`` writes.  A change to how an audited run is built,
armed or judged must leave every row untouched; update a row only
together with an explanation of what the run now does differently.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.harness.audit import audited_run

#: byzantine mode -> pinned fields of its AuditReport.
GOLDEN = {
    "none": {
        "committed_height": 20,
        "stalled": False,
        "audit_ok": True,
        "events_audited": 231,
        "last_commit_time": "5.809144850289136",
        "violations_by_kind": {},
        "audit_sha256": "627d6b772fa8b6c3438dddebf77ea9991894790328ae613d6e63e1c63894ebc3",
        "complexity_total": {"messages": 385, "bytes": 1870071, "authenticators": 273},
        "complexity_sha256": "209fbe221cd5aac29eba2767933697abc715053128b419d81c2b2bba26f3099a",
        "events_recorded": {0: 236, 1: 148, 2: 148, 3: 148},
        "blackbox_sha256": "17bc58ea611007ec2b3b4339cff74f2794e3359eea3d9705ebcc71bfb7580b2f",
    },
    "equivocator": {
        "committed_height": 18,
        "stalled": False,
        "audit_ok": False,
        "events_audited": 219,
        "last_commit_time": "5.7995217498904275",
        "violations_by_kind": {"equivocation": 1},
        "audit_sha256": "aebd9ba785c0def9d65ca51368386460aea3d1faef9a5883d00cf6c7f476cdbb",
        "complexity_total": {"messages": 385, "bytes": 1870071, "authenticators": 273},
        "complexity_sha256": "8a806ddbd5630fabfe5308dd58e2b7851889e655280bc09401cc2fcb2a429909",
        "events_recorded": {0: 148, 1: 225, 2: 144, 3: 144},
        "blackbox_sha256": "cca80805def423f3d40b110ee60e64970b082b54f9aeab3dda0e40e2cecc0a5a",
    },
    "reply-forger": {
        "committed_height": 20,
        "stalled": False,
        "audit_ok": False,
        "events_audited": 5347,
        "last_commit_time": "5.874817384302358",
        "violations_by_kind": {"reply-divergence": 1280},
        "audit_sha256": "d2d67943798f4c323026087aa15133e4fbca5a4fd7e3cca92d024e0a0c023006",
        "complexity_total": {"messages": 4745, "bytes": 1597627, "authenticators": 265},
        "complexity_sha256": "7e2bb2d3f594a4fea9739737998288f433300b4973380b7f13017393a3473e36",
        # Real client mode: replicas 0-3, then one endpoint per client.
        "events_recorded": {0: 1576, 1: 145, 2: 145, 3: 145, **dict.fromkeys(range(4, 68), 41)},
        "blackbox_sha256": "ebb09ccc2ea1cf9fc0f56c47c5e558b9c2c23bf6d82545843787dea2523feb28",
    },
}


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("byzantine", sorted(GOLDEN))
def test_audited_run_matches_golden(byzantine, tmp_path):
    report = audited_run(
        "marlin", n=4, sim_time=6.0, byzantine=byzantine, dump="always",
        dump_dir=str(tmp_path),
    )
    with open(report.blackbox_path, "rb") as fh:
        blackbox = fh.read()
    assert {
        "committed_height": report.committed_height,
        "stalled": report.stalled,
        "audit_ok": report.audit["ok"],
        "events_audited": report.audit["events_audited"],
        "last_commit_time": repr(report.audit["last_commit_time"]),
        "violations_by_kind": report.audit["violations_by_kind"],
        "audit_sha256": _sha256(report.audit),
        "complexity_total": report.complexity["total"],
        "complexity_sha256": _sha256(report.complexity),
        "events_recorded": report.events_recorded,
        "blackbox_sha256": hashlib.sha256(blackbox).hexdigest(),
    } == GOLDEN[byzantine]
