"""The public API contract: ``__all__`` resolves, the facade works, and
the facade emits no deprecation warnings."""

from __future__ import annotations

import pytest

import repro
import repro.adversary
import repro.api
from repro.api import (
    ClusterConfig,
    PipelineConfig,
    Scenario,
    load_point,
    throughput_curve,
    traced_run,
)


class TestAllIsTheContract:
    @pytest.mark.parametrize("name", sorted(repro.__all__))
    def test_repro_all_resolves(self, name):
        assert hasattr(repro, name), f"repro.__all__ lists {name} but it does not resolve"

    @pytest.mark.parametrize("name", sorted(repro.api.__all__))
    def test_api_all_resolves(self, name):
        assert hasattr(repro.api, name), (
            f"repro.api.__all__ lists {name} but it does not resolve"
        )

    def test_facade_reexports_are_the_same_objects(self):
        assert repro.Scenario is repro.api.Scenario
        assert repro.PipelineConfig is repro.api.PipelineConfig
        assert repro.DESCluster is repro.api.DESCluster
        assert repro.LocalCluster is repro.api.LocalCluster
        assert repro.ShardConfig is repro.api.ShardConfig
        assert repro.ShardedCluster is repro.api.ShardedCluster
        assert repro.AdversaryConfig is repro.api.AdversaryConfig
        assert repro.SafetyChecker is repro.api.SafetyChecker
        assert repro.run_campaign is repro.api.run_campaign

    @pytest.mark.parametrize(
        "name",
        [
            "ADVERSARY_SCENARIOS",
            "AdversaryConfig",
            "AdversaryScenario",
            "BehaviorSpec",
            "CampaignResult",
            "CellResult",
            "SafetyChecker",
            "SafetyReport",
            "apply_adversary",
            "behavior_kinds",
            "run_campaign",
        ],
    )
    def test_adversary_surface_is_public(self, name):
        # Campaign scripts must never need repro.adversary internals:
        # the facade exports the whole subsystem surface.
        assert name in repro.api.__all__
        assert getattr(repro.api, name) is getattr(repro.adversary, name)

    @pytest.mark.parametrize(
        "name",
        [
            "Node",
            "ShardConfig",
            "ShardRouter",
            "ShardedClosedLoopClients",
            "ShardedCluster",
            "ShardedLocalCluster",
            "restart_replica",
            "trigger_state_transfer",
        ],
    )
    def test_topology_and_recovery_surface_is_public(self, name):
        # Churn/scale-out scripts must never need repro.runtime.node or
        # repro.shard internals: the facade exports the whole surface.
        assert name in repro.api.__all__

    def test_recovery_helpers_wrap_the_runtime(self):
        import asyncio
        import inspect

        assert asyncio.iscoroutinefunction(repro.api.restart_replica)
        assert not asyncio.iscoroutinefunction(repro.api.trigger_state_transfer)
        assert list(inspect.signature(repro.api.trigger_state_transfer).parameters) == [
            "cluster",
            "replica_id",
        ]


class TestScenarioFacade:
    def test_scenario_is_keyword_only(self):
        with pytest.raises(TypeError):
            Scenario("marlin")  # positional use is not part of the contract

    def test_scenario_is_frozen(self):
        scenario = Scenario(protocol="marlin")
        with pytest.raises(Exception):
            scenario.f = 2

    def test_load_point_runs(self):
        result = load_point(
            Scenario(protocol="marlin", f=1, clients=16, sim_time=2.0, warmup=0.5)
        )
        assert result.throughput_tps > 0
        assert result.clients == 16

    def test_load_point_with_pipeline_runs(self):
        result = load_point(
            Scenario(
                protocol="marlin", f=1, clients=16, sim_time=2.0, warmup=0.5,
                pipeline=PipelineConfig(),
            )
        )
        assert result.throughput_tps > 0

    def test_validation_errors_name_the_field(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="Scenario.protocol"):
            Scenario(protocol="paxos")
        with pytest.raises(ConfigError, match="Scenario.clients"):
            Scenario(clients=0)
        with pytest.raises(ConfigError, match="Scenario.crypto"):
            Scenario(crypto="rot13")

    def test_with_overrides_contract(self):
        from repro.common.errors import ConfigError

        base = Scenario(protocol="marlin")
        assert base.with_overrides(f=2).f == 2
        assert base.with_overrides() == base
        with pytest.raises(ConfigError, match="no field"):
            base.with_overrides(protcol="hotstuff")

    def test_traced_run_returns_cluster_and_observability(self):
        cluster, obs = traced_run(
            Scenario(protocol="marlin", f=1, seed=2), sim_time=1.5
        )
        assert cluster.experiment.cluster.num_replicas == 4
        assert obs.tracer.spans

    def test_default_sweep_sized_to_explicit_cluster(self):
        # The n = 31 cluster, not the default f = 1, picks the grid.
        scenario = Scenario(cluster=ClusterConfig.for_f(10), sim_time=2.0, warmup=0.5)
        assert throughput_curve(scenario, latency_cap=0.0)[0].clients == 512


class TestDeprecatedAliases:
    def test_new_facade_does_not_warn(self, recwarn):
        load_point(Scenario(protocol="marlin", f=1, clients=16, sim_time=2.0, warmup=0.5))
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]
