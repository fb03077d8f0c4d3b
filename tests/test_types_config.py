"""Quorum arithmetic and configuration validation."""

from __future__ import annotations

import pytest

from repro.common.config import (
    ClusterConfig,
    ExperimentConfig,
    MachineProfile,
    NetworkProfile,
)
from repro.common.errors import ConfigError
from repro.common.types import max_faulty, quorum_size, validate_bft_size


class TestQuorumMath:
    @pytest.mark.parametrize(
        "n,f", [(4, 1), (5, 1), (6, 1), (7, 2), (10, 3), (31, 10), (91, 30)]
    )
    def test_max_faulty(self, n, f):
        assert max_faulty(n) == f

    @pytest.mark.parametrize("n,q", [(4, 3), (7, 5), (10, 7), (31, 21)])
    def test_quorum(self, n, q):
        assert quorum_size(n) == q

    def test_quorum_intersection_contains_correct_replica(self):
        # Any two quorums intersect in >= f + 1 replicas: the BFT core fact.
        for f in range(1, 12):
            n = 3 * f + 1
            q = quorum_size(n)
            assert 2 * q - n >= f + 1

    def test_validate_bft_size(self):
        validate_bft_size(4, 1)
        with pytest.raises(ConfigError):
            validate_bft_size(4, 2)

    def test_max_faulty_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            max_faulty(0)


class TestClusterConfig:
    def test_for_f(self):
        config = ClusterConfig.for_f(3)
        assert config.num_replicas == 10
        assert config.f == 3
        assert config.quorum == 7

    def test_leader_rotation_round_robin(self):
        config = ClusterConfig.for_f(1)
        leaders = [config.leader_of(v) for v in range(1, 9)]
        assert leaders == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_leader_of_view_zero_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig.for_f(1).leader_of(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_replicas": 3},
            {"num_replicas": 4, "batch_size": 0},
            {"num_replicas": 4, "checkpoint_interval": 0},
            {"num_replicas": 4, "base_timeout": 0},
            {"num_replicas": 4, "timeout_multiplier": 0.5},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs)

    def test_for_f_rejects_zero(self):
        with pytest.raises(ConfigError):
            ClusterConfig.for_f(0)


class TestProfiles:
    def test_paper_testbed_values(self):
        net = NetworkProfile.paper_testbed()
        assert net.one_way_latency == pytest.approx(0.040)
        assert net.bandwidth_bps == pytest.approx(200e6)
        assert net.nic_bps == pytest.approx(1e9)

    def test_transmission_delay(self):
        net = NetworkProfile(bandwidth_bps=8e6, jitter=0)
        assert net.transmission_delay(1000) == pytest.approx(1e-3)

    def test_nic_delay(self):
        net = NetworkProfile(nic_bps=8e9)
        assert net.nic_delay(1000) == pytest.approx(1e-6)

    def test_invalid_network(self):
        with pytest.raises(ConfigError):
            NetworkProfile(loss_rate=1.5)
        with pytest.raises(ConfigError):
            NetworkProfile(bandwidth_bps=0)
        with pytest.raises(ConfigError):
            NetworkProfile(one_way_latency=-1)

    def test_machine_db_cost_monotone(self):
        machine = MachineProfile.paper_testbed()
        assert machine.db_write_cost(10_000) > machine.db_write_cost(100)

    def test_machine_rejects_negative(self):
        with pytest.raises(ConfigError):
            MachineProfile(sign_cost=-1.0)

    def test_experiment_defaults(self):
        exp = ExperimentConfig(cluster=ClusterConfig.for_f(1))
        assert exp.request_size == 150
        assert exp.reply_size == 150

    def test_experiment_rejects_negative_sizes(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(cluster=ClusterConfig.for_f(1), request_size=-1)
