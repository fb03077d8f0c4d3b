"""Fuzz goldens: every seeded random-adversity run the fuzz tests drive, pinned.

``tests/test_failures_fuzz.py::TestFuzz`` asserts only safety and coarse
progress of each :func:`~repro.adversary.fuzz_schedule` run.  This file
pins each run's whole :class:`~repro.adversary.FuzzReport` — the drawn
crashes and partitions, every replica's committed height, the highest
view reached and the committed op count — for the same seeds,
protocols, ``f`` and simulated times.  A change to how the fuzzer draws
or installs its adversity must leave every row untouched; update a row
only together with an explanation of what the model now does
differently.
"""

from __future__ import annotations

import pytest

from repro.adversary import fuzz_schedule

#: (protocol, seed, f, sim_time) -> (events, committed_heights, max_view, ops_committed)
GOLDEN = {
    ("marlin", 0, 1, 20.0): (
        [
            "crash r3 @ 1.36s",
            "partition [3] for 2.46s @ 5.45s",
            "partition [1] for 2.73s @ 4.94s",
            "partition [1] for 2.39s @ 4.10s",
        ],
        [52, 52, 52, 4],
        6,
        1224,
    ),
    ("marlin", 1, 1, 20.0): ([], [68, 68, 68, 68], 1, 1632),
    ("marlin", 2, 1, 20.0): ([], [68, 68, 68, 68], 1, 1632),
    ("marlin", 3, 1, 20.0): (
        ["partition [0] for 2.01s @ 5.07s"],
        [17, 68, 68, 68],
        7,
        1608,
    ),
    ("marlin", 4, 1, 20.0): (
        ["partition [0] for 1.49s @ 2.13s", "partition [0] for 1.50s @ 1.73s"],
        [6, 66, 66, 66],
        8,
        1584,
    ),
    ("marlin", 5, 1, 20.0): (["crash r2 @ 8.16s"], [68, 68, 28, 68], 1, 1632),
    ("marlin", 6, 1, 20.0): (
        [
            "partition [3] for 0.59s @ 9.38s",
            "partition [0] for 2.34s @ 11.62s",
            "partition [0] for 2.50s @ 4.00s",
        ],
        [35, 63, 63, 64],
        10,
        1512,
    ),
    ("marlin", 7, 1, 20.0): (["crash r1 @ 4.55s"], [68, 15, 68, 68], 1, 1632),
    ("hotstuff", 100, 1, 20.0): (
        [
            "partition [2] for 2.43s @ 6.00s",
            "partition [0] for 2.50s @ 5.77s",
            "partition [2] for 1.16s @ 9.10s",
        ],
        [42, 42, 42, 42],
        6,
        960,
    ),
    ("hotstuff", 101, 1, 20.0): (
        ["partition [1] for 2.16s @ 6.14s", "partition [2] for 1.71s @ 11.09s"],
        [48, 48, 48, 49],
        7,
        1128,
    ),
    ("hotstuff", 102, 1, 20.0): (
        ["partition [3] for 2.28s @ 2.87s", "partition [1] for 1.57s @ 4.22s"],
        [50, 50, 50, 8],
        8,
        1176,
    ),
    ("hotstuff", 103, 1, 20.0): (["crash r1 @ 7.20s"], [54, 20, 53, 53], 1, 1272),
    ("chained-marlin", 200, 1, 20.0): (
        ["partition [0] for 0.58s @ 9.08s"],
        [67, 67, 67, 67],
        2,
        1608,
    ),
    ("chained-marlin", 201, 1, 20.0): (
        ["partition [3] for 2.45s @ 5.62s", "partition [3] for 1.18s @ 7.83s"],
        [68, 68, 68, 68],
        4,
        1632,
    ),
    ("chained-marlin", 202, 1, 20.0): (
        ["crash r3 @ 4.68s", "partition [3] for 1.50s @ 3.16s"],
        [68, 68, 68, 11],
        3,
        1632,
    ),
    ("marlin", 7, 2, 25.0): (
        ["crash r1 @ 5.54s"],
        [85, 19, 85, 85, 85, 85, 85],
        1,
        2040,
    ),
    ("marlin", 3, 1, 10.0): (
        ["partition [0] for 2.01s @ 2.85s"],
        [10, 34, 34, 34],
        6,
        792,
    ),
}


@pytest.mark.parametrize(
    "case", sorted(GOLDEN), ids=lambda case: "-".join(str(part) for part in case)
)
def test_fuzz_report_is_pinned(case):
    protocol, seed, f, sim_time = case
    report = fuzz_schedule(seed, protocol=protocol, f=f, sim_time=sim_time)
    assert report.safety_ok
    assert (
        report.events,
        report.committed_heights,
        report.max_view,
        report.ops_committed,
    ) == GOLDEN[case]
