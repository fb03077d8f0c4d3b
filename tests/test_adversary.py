"""The adversary subsystem: behaviours, scenarios, checker, campaigns.

Four layers under test:

1. **determinism** — every randomised behaviour draws from a private
   ``strategy_rng`` stream, so adversarial runs replay bit-identically;
2. **registry** — every behaviour kind builds, bad declarations fail
   loudly, behaviours on one replica compose in declaration order;
3. **checker** — each safety rule trips on a synthetically corrupted
   history and stays quiet on a clean one;
4. **negative controls** — the forking attack wedges the deliberately
   unsafe two-phase protocol (with evidence) while Marlin, HotStuff and
   Fast-HotStuff survive the identical adversary, and a campaign's
   verdict matrix is byte-identical across ``jobs`` settings.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    ADVERSARY_SCENARIOS,
    AdversaryConfig,
    BehaviorSpec,
    CrashEvent,
    PartitionWindow,
    SafetyChecker,
    apply_adversary,
    behavior_kinds,
    get_scenario,
    list_scenarios,
    run_campaign,
)
from repro.adversary.behaviors import BEHAVIOR_KINDS, ComposedStrategy, strategy_rng
from repro.adversary.campaign import (
    VERDICT_DETECTED,
    VERDICT_MISSED,
    VERDICT_SAFE,
    VERDICT_UNEXPECTED,
    _eval_cell,
    _judge,
)
from repro.common.config import ClusterConfig, ExperimentConfig, QuorumConfig
from repro.common.errors import ConfigError
from repro.harness.des_runtime import DESCluster
from repro.harness.workload import ClosedLoopClients


def small_cluster(seed: int = 1, learners: int = 0, **quorum_kwargs):
    experiment = ExperimentConfig(
        cluster=ClusterConfig(
            num_replicas=4,
            batch_size=400,
            base_timeout=0.5,
            quorums=(
                QuorumConfig(learners=learners, **quorum_kwargs)
                if learners or quorum_kwargs
                else None
            ),
        ),
        seed=seed,
    )
    return DESCluster(experiment, protocol="marlin", crypto_mode="null")


def d(byte: int) -> bytes:
    return bytes([byte]) * 32


# ---------------------------------------------------------------------------
# 1. Seeded determinism


class TestStrategyRNG:
    def test_same_key_replays_identically(self):
        a = strategy_rng(7, "gray", 1)
        b = strategy_rng(7, "gray", 1)
        assert [a.random() for _ in range(16)] == [b.random() for _ in range(16)]

    @pytest.mark.parametrize(
        "other",
        [(8, "gray", 1), (7, "delay", 1), (7, "gray", 2)],
        ids=["seed", "kind", "replica"],
    )
    def test_streams_are_private_per_key(self, other):
        base = strategy_rng(7, "gray", 1)
        changed = strategy_rng(*other)
        assert [base.random() for _ in range(4)] != [
            changed.random() for _ in range(4)
        ]

    def test_randomised_adversary_run_is_reproducible(self):
        """Two gray-failure runs from one seed are byte-identical: the
        commit-trace hash (and the whole checker report) must match."""
        task = {"scenario": "gray-failure", "protocol": "marlin", "seed": 3,
                "sim_time": 5.0}
        first = _eval_cell(dict(task))
        second = _eval_cell(dict(task))
        assert first == second
        assert first["trace_sha256"] == second["trace_sha256"]
        assert first["committed_height"] > 0


# ---------------------------------------------------------------------------
# 2. Registry and declarations


class TestBehaviorRegistry:
    def test_registry_lists_every_kind(self):
        kinds = behavior_kinds()
        assert sorted(kinds) == sorted(BEHAVIOR_KINDS)
        assert {
            "delay",
            "equivocate",
            "forking-leader",
            "gray",
            "qc-hide",
            "vc-lag",
        } <= set(kinds)
        assert all(summary for summary in kinds.values())

    def test_every_kind_builds_a_strategy(self):
        cluster = small_cluster()
        for name, kind in sorted(BEHAVIOR_KINDS.items()):
            strategy = kind.build(cluster, 1, strategy_rng(1, name, 1), {})
            assert callable(strategy.outbound), name

    def test_unknown_kind_is_rejected(self):
        config = AdversaryConfig(behaviors=(BehaviorSpec.make("nope", 0),))
        with pytest.raises(ValueError, match="unknown behavior kind 'nope'"):
            apply_adversary(small_cluster(), config)

    def test_out_of_range_replica_is_rejected(self):
        config = AdversaryConfig(behaviors=(BehaviorSpec.make("delay", 4),))
        with pytest.raises(ValueError, match="replica 4"):
            apply_adversary(small_cluster(), config)

    @pytest.mark.parametrize(
        "config",
        [
            AdversaryConfig(partitions=(PartitionWindow(1.0, 0.5, (1, 4)),)),
            AdversaryConfig(crashes=(CrashEvent(replica=9, when=1.0),)),
        ],
        ids=["partition", "crash"],
    )
    def test_out_of_range_partition_or_crash_is_rejected(self, config):
        # Rejected at install time: a partition must not shrink silently
        # to a no-op, and a crash must not fail only once its time comes.
        cluster = small_cluster()
        with pytest.raises(ValueError, match=r"replica (4|9)"):
            apply_adversary(cluster, config)
        assert cluster.sim.pending == 0

    def test_spec_params_are_canonical_and_hashable(self):
        a = BehaviorSpec.make("gray", 1, slow_p=0.3, drop_p=0.1)
        b = BehaviorSpec.make("gray", 1, drop_p=0.1, slow_p=0.3)
        assert a == b and hash(a) == hash(b)
        assert a.params_dict == {"drop_p": 0.1, "slow_p": 0.3}
        config = AdversaryConfig(
            behaviors=(a, BehaviorSpec.make("delay", 3)),
            partitions=(PartitionWindow(1.0, 0.5, (2,)),),
            crashes=(CrashEvent(replica=0, when=5.0),),
        )
        hash(config)
        assert config.faulty_replicas() == (1, 3)

    def test_composition_applies_in_declaration_order(self):
        class Tag:
            def __init__(self, tag):
                self.tag = tag

            def outbound(self, now, dst, payload, send):
                send(dst, payload + (self.tag,))

        sent: list[tuple] = []
        composed = ComposedStrategy([Tag("a"), Tag("b")])
        composed.outbound(0.0, 2, (), lambda dst, payload: sent.append(payload))
        # The first declared strategy sees the raw payload; its output is
        # then subject to the second.
        assert sent == [("a", "b")]


class TestScenarioLibrary:
    def test_library_contents(self):
        assert sorted(ADVERSARY_SCENARIOS) == [
            "amnesia",
            "crash-churn",
            "equivocating-leader",
            "equivocation-under-partition",
            "forking-attack",
            "gray-failure",
            "qc-suppression",
        ]
        assert list_scenarios() == {
            name: scenario.summary
            for name, scenario in sorted(ADVERSARY_SCENARIOS.items())
        }

    def test_unknown_scenario_names_the_known_ones(self):
        with pytest.raises(ValueError, match="forking-attack"):
            get_scenario("nope")

    @pytest.mark.parametrize("name", sorted(ADVERSARY_SCENARIOS))
    def test_every_scenario_installs_on_a_minimal_cluster(self, name):
        scenario = get_scenario(name)
        assert scenario.min_replicas <= 4
        apply_adversary(small_cluster(), scenario.adversary)

    def test_only_the_forking_attack_expects_a_violation(self):
        for name, scenario in ADVERSARY_SCENARIOS.items():
            for protocol in ("marlin", "hotstuff", "fast-hotstuff"):
                assert not scenario.expects_violation(protocol), (name, protocol)
        forking = get_scenario("forking-attack")
        assert forking.expects_violation("insecure")
        assert forking.check_progress
        assert not get_scenario("gray-failure").check_progress


# ---------------------------------------------------------------------------
# 3. The checker, on synthetic histories


def chain(*digests: bytes) -> list[tuple[int, bytes, bytes | None]]:
    history = []
    prev = None
    for height, digest in enumerate(digests, start=1):
        history.append((height, digest, prev))
        prev = digest
    return history


class TestSafetyChecker:
    def setup_method(self):
        self.checker = SafetyChecker(num_replicas=4)

    def test_f_defaults_to_the_paper_bound(self):
        assert self.checker.f == 1
        assert SafetyChecker(num_replicas=10, f=2).f == 2

    def test_clean_history_passes_every_rule(self):
        histories = {r: chain(d(1), d(2), d(3)) for r in range(4)}
        executions = {r: [(1, 0), (1, 1), (2, 0)] for r in range(4)}
        replies = [(1, 0, r, d(9)) for r in range(4)]
        report = self.checker.check_history(
            histories, executions=executions, replies=replies
        )
        assert report.ok
        assert report.kinds() == []
        assert report.checks_run == ["agreement", "prefix", "exactly-once", "replies"]

    def test_conflicting_commit_names_height_and_replicas(self):
        histories = {
            0: chain(d(1), d(2)),
            1: chain(d(1), d(2)),
            2: chain(d(1), d(7)),
        }
        report = self.checker.check_history(histories)
        assert report.kinds() == ["conflicting-commit"]
        (violation,) = report.violations
        assert violation["evidence"]["height"] == 2
        assert sorted(
            replicas
            for replicas in violation["evidence"]["digests"].values()
        ) == [[0, 1], [2]]

    def test_height_gap_breaks_the_chain(self):
        histories = {0: [(1, d(1), None), (3, d(3), d(1))]}
        report = self.checker.check_history(histories)
        assert report.kinds() == ["broken-chain"]

    def test_wrong_parent_breaks_the_chain(self):
        histories = {0: [(1, d(1), None), (2, d(2), d(7))]}
        report = self.checker.check_history(histories)
        assert report.kinds() == ["broken-chain"]

    def test_duplicate_execution_carries_a_sample(self):
        executions = {2: [(1, 0), (1, 0), (3, 5)]}
        (violation,) = self.checker.check_exactly_once(executions)
        assert violation["kind"] == "duplicate-execution"
        assert violation["evidence"] == {"replica": 2, "sample": [[1, 0]]}

    def test_two_certifiable_reply_digests_is_a_violation(self):
        replies = [
            (1, 0, 0, d(9)),
            (1, 0, 1, d(9)),
            (1, 0, 2, d(8)),
            (1, 0, 3, d(8)),
        ]
        (violation,) = self.checker.check_replies(replies)
        assert violation["kind"] == "conflicting-reply-certificates"

    def test_one_liar_cannot_forge_a_reply_violation(self):
        # f = 1: a lone divergent digest never reaches the f + 1 bar.
        replies = [
            (1, 0, 0, d(9)),
            (1, 0, 1, d(9)),
            (1, 0, 2, d(9)),
            (1, 0, 3, d(8)),
        ]
        assert self.checker.check_replies(replies) == []

    def test_progress_rules(self):
        healthy = {0: 10, 1: 10, 2: 10, 3: 9}
        violations, summary = self.checker.check_progress(
            healthy, last_commit_time=9.5, end_time=10.0, stall_after=2.0
        )
        assert violations == [] and not summary["stalled"]

        violations, summary = self.checker.check_progress(
            healthy, last_commit_time=5.0, end_time=10.0, stall_after=2.0
        )
        assert summary["stalled"]
        assert violations[0]["kind"] == "progress-stall"

        violations, _ = self.checker.check_progress(
            {r: 0 for r in range(4)},
            last_commit_time=0.0,
            end_time=10.0,
            stall_after=20.0,
        )
        assert violations[0]["kind"] == "progress-stall"
        assert "no block ever committed" in violations[0]["detail"]


# ---------------------------------------------------------------------------
# 4. Negative controls: the forking attack, end to end


class TestForkingAttackControls:
    def test_insecure_two_phase_wedges_with_evidence(self):
        cell = _eval_cell(
            {"scenario": "forking-attack", "protocol": "insecure", "seed": 1,
             "sim_time": 8.0}
        )
        report = cell["report"]
        assert not report["ok"]
        kinds = {v["kind"] for v in report["violations"]}
        assert "progress-stall" in kinds
        # The wedge sits right above the healthy pre-fork prefix.
        assert 1 <= cell["committed_height"] <= 3
        assert cell["max_view"] > 2  # it kept rotating leaders, fruitlessly
        (stall,) = [v for v in report["violations"] if v["kind"] == "progress-stall"]
        assert stall["evidence"]["committed_heights"]

    @pytest.mark.parametrize("protocol", ["marlin", "hotstuff", "fast-hotstuff"])
    def test_safe_protocols_survive_the_same_adversary(self, protocol):
        cell = _eval_cell(
            {"scenario": "forking-attack", "protocol": protocol, "seed": 1,
             "sim_time": 8.0}
        )
        report = cell["report"]
        assert report["ok"], report["violations"]
        assert cell["committed_height"] > 5  # recovered and kept committing
        assert cell["max_view"] >= 2  # the attack did force a view change


class TestCampaignJudging:
    def _cell(self, ok: bool) -> dict:
        return {
            "scenario": "s",
            "protocol": "p",
            "seed": 1,
            "committed_height": 5,
            "max_view": 1,
            "trace_sha256": "x",
            "report": {
                "ok": ok,
                "violations": [] if ok else [{"kind": "progress-stall"}],
                "observations": [],
            },
        }

    @pytest.mark.parametrize(
        "ok, expected, verdict",
        [
            (True, False, VERDICT_SAFE),
            (False, True, VERDICT_DETECTED),
            (True, True, VERDICT_MISSED),
            (False, False, VERDICT_UNEXPECTED),
        ],
    )
    def test_verdict_matrix(self, ok, expected, verdict):
        cell = _judge(self._cell(ok), expected=expected)
        assert cell.verdict == verdict
        assert cell.violation_kinds == (() if ok else ("progress-stall",))

    def test_campaign_fails_on_missed_or_unexpected(self):
        from repro.adversary.campaign import CampaignResult

        safe = _judge(self._cell(True), expected=False)
        missed = _judge(self._cell(True), expected=True)
        assert CampaignResult(cells=[safe]).ok
        result = CampaignResult(cells=[safe, missed])
        assert not result.ok
        assert "FAILED" in result.render()
        summary = result.to_dict()["summary"]
        assert summary == {
            "total": 2,
            "safe": 1,
            "violation-detected": 0,
            "violation-missed": 1,
            "unexpected-violation": 0,
        }


class TestCampaignDeterminism:
    def test_verdict_matrix_is_identical_across_jobs(self):
        kwargs = dict(
            scenarios=["equivocating-leader"],
            protocols=("marlin",),
            seeds=(1, 2),
            sim_time=5.0,
        )
        serial = run_campaign(jobs=1, **kwargs)
        parallel = run_campaign(jobs=2, **kwargs)
        assert serial.ok and parallel.ok
        assert serial.to_dict(include_reports=True) == parallel.to_dict(
            include_reports=True
        )
        assert [c.verdict for c in serial.cells] == [VERDICT_SAFE, VERDICT_SAFE]


# ---------------------------------------------------------------------------
# 5. Flexible quorums: learner replicas


class TestLearnerThreshold:
    def _run(self, learner_commit_quorum=None, crash=None, until=6.0):
        cluster = small_cluster(
            seed=2,
            learners=1,
            **(
                {"learner_commit_quorum": learner_commit_quorum}
                if learner_commit_quorum
                else {}
            ),
        )
        if crash is not None:
            cluster.crash_at(*crash)
        pool = ClosedLoopClients(cluster, num_clients=24, token_weight=1, target="all")
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=until)
        return cluster

    def test_learner_follows_the_committed_chain(self):
        cluster = self._run()
        learner = cluster.replicas[4]
        voters = cluster.replicas[:4]
        assert learner.protocol_name == "learner"
        assert learner.ledger.committed_height > 0
        assert learner.ledger.committed_height <= max(
            v.ledger.committed_height for v in voters
        )
        # Agreement + prefix checks hold with the learner's history included.
        report = SafetyChecker(num_replicas=4).check_cluster(cluster)
        assert report.ok, report.violations

    def test_learner_freezes_when_echo_quorum_is_unreachable(self):
        # Demanding all 4 voters' echoes, then crashing one: the voting
        # cluster keeps committing (n - f = 3) but the learner can never
        # again assemble its threshold and freezes — safely behind, never
        # wrong.
        cluster = self._run(learner_commit_quorum=4, crash=(3, 3.0), until=8.0)
        learner = cluster.replicas[4]
        voters = cluster.replicas[:3]
        frozen_at = learner.ledger.committed_height
        assert frozen_at > 0  # it kept up while all voters were alive
        assert frozen_at < min(v.ledger.committed_height for v in voters)
        report = SafetyChecker(num_replicas=4).check_cluster(cluster)
        assert report.ok, report.violations


# ---------------------------------------------------------------------------
# 6. The Scenario facade carries adversaries


class TestScenarioAdversary:
    def test_named_adversary_is_validated_eagerly(self):
        from repro.api import Scenario

        Scenario(protocol="marlin", f=1, adversary="gray-failure")
        with pytest.raises(ConfigError, match="adversary"):
            Scenario(protocol="marlin", f=1, adversary="nope")
        with pytest.raises(ConfigError):
            Scenario(protocol="marlin", f=1, adversary=42)  # type: ignore[arg-type]

    def test_inline_adversary_config_is_accepted(self):
        from repro.api import Scenario

        config = AdversaryConfig(
            behaviors=(BehaviorSpec.make("delay", 1, delay=0.05),)
        )
        scenario = Scenario(protocol="marlin", f=1, adversary=config)
        assert scenario.adversary is config

    def test_load_point_runs_under_an_adversary(self):
        from repro.api import Scenario, load_point

        point = load_point(
            Scenario(
                protocol="marlin",
                f=1,
                clients=32,
                sim_time=4.0,
                warmup=1.0,
                adversary=AdversaryConfig(
                    behaviors=(BehaviorSpec.make("delay", 1, delay=0.02),)
                ),
            )
        )
        assert point.throughput_tps > 0
