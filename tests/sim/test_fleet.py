"""Vectorized fleet engine: exact parity with the DES across every
protocol family, sharding/streaming reduction, and the
statistical-equivalence harness."""

from __future__ import annotations

import dataclasses
import random
from multiprocessing import shared_memory

import pytest

from repro.devtools.sanitizers.resources import ResourceSanitizer, tracking
from repro.engine import stable_key
from repro.engine.executors import Executor, ParallelExecutor
from repro.errors import ConfigurationError, SimulationError
from repro.net.harness import shard_sizes
from repro.protocols import base as protocol_base
from repro.scenarios.families import ALL_PROTOCOLS
from repro.sim import fleet
from repro import perf
from repro.crypto.kernels import fast_umac
from repro.sim.fleet import (
    EquivalenceReport,
    run_fleet_scenario,
    shard_plan,
    statistical_equivalence,
    supports,
)
from repro.sim.metrics import FleetAggregate
from repro.sim.scenario import ScenarioConfig, run_scenario
from repro.sim.workloads import workload_for
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync

#: The canonical catalog seeds (every dual-seed entry declares these).
CATALOG_SEEDS = (7, 11)


class _FailingShardExecutor(Executor):
    """A two-job executor whose shards die after reading their block."""

    jobs = 2

    def __init__(self) -> None:
        self.block_name = None

    def stream(self, spec):
        _plan, _config, _start, _stop, _seeds, name, _slots, _rows = (
            spec.tasks[0]
        )
        self.block_name = name
        # The block is live while shards run.
        shared_memory.SharedMemory(name=name).close()
        raise RuntimeError("shard worker died")


def _weak_rejections(result) -> int:
    return sum(node.rejected_weak_auth for node in result.fleet.nodes)


def _assert_identical(config: ScenarioConfig):
    """Both engines at the same seed must agree on every metric."""
    des = run_scenario(dataclasses.replace(config, engine="des"))
    fast = run_fleet_scenario(config)
    assert fast.fleet == des.fleet
    assert fast.sent_authentic == des.sent_authentic
    assert fast.forged_bandwidth_fraction == des.forged_bandwidth_fraction
    assert fast.simulated_seconds == des.simulated_seconds
    return fast


class TestExactParity:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("attack", [0.0, 0.5])
    def test_clean_channel(self, protocol, attack):
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=15,
                receivers=4,
                buffers=4,
                attack_fraction=attack,
                seed=11,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("seed", CATALOG_SEEDS)
    def test_bernoulli_loss_at_catalog_seeds(self, protocol, seed):
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=15,
                receivers=4,
                buffers=3,
                attack_fraction=0.5,
                loss_probability=0.2,
                seed=seed,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_t3_storm(self, protocol):
        """T3-tier storm: p=0.8 burst flood over a bursty GE channel."""
        result = _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=20,
                receivers=5,
                buffers=4,
                attack_fraction=0.8,
                attack_burst_fraction=0.25,
                loss_probability=0.2,
                loss_mean_burst=4.0,
                seed=7,
                engine="vectorized",
            )
        )
        # The paper's security invariant survives the fast path.
        assert result.fleet.total_forged_accepted == 0

    def test_heavy_flood_and_small_buffers(self):
        result = _assert_identical(
            ScenarioConfig(
                protocol="dap",
                intervals=20,
                receivers=6,
                buffers=1,
                attack_fraction=0.9,
                loss_probability=0.1,
                seed=4,
                engine="vectorized",
            )
        )
        assert result.fleet.total_forged_accepted == 0

    @pytest.mark.parametrize("protocol", ["tesla", "mu_tesla", "multilevel"])
    def test_multiple_packets_per_interval(self, protocol):
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=12,
                receivers=3,
                buffers=4,
                attack_fraction=0.3,
                packets_per_interval=3,
                disclosure_delay=2,
                seed=21,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", ["multilevel", "eftp", "edrp"])
    def test_multilevel_parameter_variations(self, protocol):
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=25,
                receivers=4,
                buffers=2,
                low_per_high=3,
                cdm_copies=6,
                attack_fraction=0.5,
                loss_probability=0.3,
                seed=13,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", ["dap", "tesla_pp"])
    def test_weak_auth_lockout_at_a_small_key_gap(self, protocol, monkeypatch):
        """Both engines read the key-gap bound at run time. At gap 2 a
        lossy channel makes delivered reveals jump past it, which locks
        a receiver out of weak authentication for the rest of the run —
        a branch no catalog config reaches at the default 4096."""
        config = ScenarioConfig(
            protocol=protocol,
            intervals=30,
            receivers=8,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.6,
            packets_per_interval=2,
            seed=5,
            engine="vectorized",
        )
        assert _weak_rejections(_assert_identical(config)) == 0
        monkeypatch.setattr(protocol_base, "MAX_KEY_GAP", 2)
        assert _weak_rejections(_assert_identical(config)) > 0

    def test_run_scenario_dispatches_to_fleet(self):
        config = ScenarioConfig(
            protocol="dap",
            intervals=10,
            receivers=3,
            attack_fraction=0.5,
            seed=5,
            engine="vectorized",
        )
        via_dispatch = run_scenario(config)
        direct = run_fleet_scenario(config)
        assert via_dispatch.fleet == direct.fleet
        # The DES path returns live nodes; the fleet path has none.
        assert via_dispatch.nodes == ()


class TestSupport:
    def test_supports_every_catalog_family(self):
        for protocol in ALL_PROTOCOLS:
            assert supports(ScenarioConfig(protocol=protocol)), protocol

    def test_engine_validated_at_config_time(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(engine="warp")

    def test_invalid_summary_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="summary"):
            run_fleet_scenario(
                ScenarioConfig(protocol="dap", intervals=6, receivers=2),
                summary="per-node",
            )

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="shards"):
            run_fleet_scenario(
                ScenarioConfig(protocol="dap", intervals=6, receivers=2),
                shards=0,
            )


class TestSharding:
    def test_shard_plan_matches_harness_shard_sizes(self):
        """Regression: fleet shard plans reuse net.harness.shard_sizes,
        not a parallel implementation."""
        for receivers, shards in [(10, 3), (1000, 7), (5, 5), (64, 1)]:
            plan = shard_plan(receivers, shards)
            assert [stop - start for start, stop in plan] == shard_sizes(
                receivers, shards
            )
            # Contiguous cover of [0, receivers).
            assert plan[0][0] == 0
            assert plan[-1][1] == receivers
            for (_, a_stop), (b_start, _) in zip(plan, plan[1:]):
                assert a_stop == b_start

    def test_shard_plan_validates_like_shard_sizes(self):
        with pytest.raises(ConfigurationError):
            shard_plan(10, 0)
        with pytest.raises(ConfigurationError):
            shard_plan(3, 5)

    @pytest.mark.parametrize("protocol", ["dap", "tesla", "multilevel"])
    def test_sharded_run_is_invariant(self, protocol):
        config = ScenarioConfig(
            protocol=protocol,
            intervals=15,
            receivers=7,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.2,
            seed=7,
            engine="vectorized",
        )
        base = run_fleet_scenario(config)
        for shards in (2, 3, 7, 50):  # 50 clamps to the receiver count
            sharded = run_fleet_scenario(config, shards=shards)
            assert sharded.fleet == base.fleet, shards

    def test_aggregate_summary_matches_nodes_summary(self):
        config = ScenarioConfig(
            protocol="edrp",
            intervals=15,
            receivers=6,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.2,
            loss_mean_burst=4.0,
            seed=11,
            engine="vectorized",
        )
        nodes = run_fleet_scenario(config)
        aggregate = run_fleet_scenario(config, shards=3, summary="aggregate")
        assert isinstance(aggregate.fleet, FleetAggregate)
        assert aggregate.fleet == FleetAggregate.from_summary(nodes.fleet)

    def test_parallel_executor_with_shared_memory_matches_serial(self):
        config = ScenarioConfig(
            protocol="multilevel",
            intervals=12,
            receivers=6,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.2,
            seed=7,
            engine="vectorized",
        )
        serial = run_fleet_scenario(config, shards=3)
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_fleet_scenario(config, shards=3, executor=executor)
            aggregate = run_fleet_scenario(
                config, shards=3, executor=executor, summary="aggregate"
            )
        assert parallel.fleet == serial.fleet
        assert aggregate.fleet == FleetAggregate.from_summary(serial.fleet)

    def test_failing_shard_still_releases_the_shared_block(self):
        """The delivery-mask block is closed and unlinked even when a
        shard fails mid-stream, and the failure reaches the caller."""
        config = ScenarioConfig(
            protocol="dap",
            intervals=6,
            receivers=4,
            buffers=3,
            attack_fraction=0.5,
            seed=7,
            engine="vectorized",
        )
        executor = _FailingShardExecutor()
        with tracking(ResourceSanitizer()) as sanitizer:
            with pytest.raises(RuntimeError, match="shard worker died"):
                run_fleet_scenario(config, shards=2, executor=executor)
        assert executor.block_name is not None
        assert sanitizer.tracked == 1
        assert sanitizer.leaks() == ()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=executor.block_name)


class TestBatchedReplay:
    """The hot path: batched MACs and the vectorized reservoir replay."""

    @staticmethod
    def _config(protocol="dap", seed=7):
        return ScenarioConfig(
            protocol=protocol,
            intervals=20,
            receivers=6,
            buffers=4,
            attack_fraction=0.5,
            loss_probability=0.1,
            seed=seed,
            engine="vectorized",
        )

    @pytest.mark.parametrize("protocol", ["dap", "tesla_pp"])
    @pytest.mark.parametrize("seed", CATALOG_SEEDS)
    def test_reservoir_kernel_matches_reference_replay(self, protocol, seed):
        """The numpy two-phase replay (keyed overflow draws for a whole
        receiver block) must be byte-identical to the reference replay,
        the event-driven DES offering copy by copy."""
        _assert_identical(self._config(protocol, seed))

    def test_replay_rejects_a_plan_outside_the_window_layout(self):
        """The numpy replay's exactness rests on the announce/reveal
        window layout; a plan that breaks it is an internal error, not
        a silent divergence."""
        config = self._config()
        plan = fleet._build_plan(
            config,
            IntervalSchedule(0.0, config.interval_duration),
            LooseTimeSync(config.max_offset),
            workload_for(config),
            random.Random(1),
        )
        fleet._two_phase_precompute(plan)
        shuffled = dataclasses.replace(plan, intervals=plan.intervals[::-1])
        with pytest.raises(SimulationError):
            fleet._two_phase_precompute(shuffled)

    @pytest.mark.parametrize("protocol", ["tesla", "multilevel"])
    def test_authentic_mac_failure_is_a_simulation_error(
        self, protocol, monkeypatch
    ):
        """An authentic record failing its MAC check breaks an internal
        invariant; no config can cause it, so it is not a
        ConfigurationError."""
        monkeypatch.setattr(
            fleet.MacScheme,
            "verify_many",
            lambda self, key, pairs: [False] * len(pairs),
        )
        config = ScenarioConfig(
            protocol=protocol, intervals=6, receivers=3, engine="vectorized"
        )
        with pytest.raises(SimulationError, match="failed MAC verification"):
            run_fleet_scenario(config)

    @pytest.mark.parametrize("protocol", ["dap", "multilevel"])
    def test_replay_batches_macs_not_single_pairs(self, protocol):
        """Regression for the single-pair verify_many anti-pattern: one
        batch call covers a whole slot's digests, so digests far
        outnumber batch calls. If plan construction or the replay
        degrades to one pair per call again, the ratio collapses to ~1
        and this assertion goes red."""
        config = dataclasses.replace(
            self._config(protocol), packets_per_interval=4
        )
        with perf.collecting() as registry:
            run_fleet_scenario(config)
        batches = registry.counter("crypto.mac.batches")
        macs = registry.counter("crypto.mac")
        assert batches > 0
        assert macs / batches >= 2.0

    def test_fast_umac_keeps_engines_byte_identical(self):
        """Both engines route μMACs through MicroMacScheme, so the
        non-faithful FAST_UMAC bytes change *both* identically: the
        DES/fleet equivalence harness must still report exact
        mirroring with the switch on."""
        config = self._config()
        with fast_umac(True):
            report = statistical_equivalence(config, seeds=range(1, 4))
        assert report.passes
        assert report.identical == len(report.seeds)

    def test_fast_umac_is_statistically_equivalent_to_faithful(self):
        """Fast-on vs fast-off runs may differ on individual 2^-24
        collision placements but must agree on aggregate figures."""
        config = self._config()
        faithful = run_fleet_scenario(config)
        with fast_umac(True):
            fast = run_fleet_scenario(config)
        assert fast.sent_authentic == faithful.sent_authentic
        assert abs(
            fast.authentication_rate - faithful.authentication_rate
        ) <= 0.05
        assert abs(
            fast.attack_success_rate - faithful.attack_success_rate
        ) <= 0.05


class TestCacheKeys:
    def test_engines_never_alias_in_the_result_cache(self):
        base = ScenarioConfig(protocol="dap", intervals=10, receivers=2)
        vectorized = dataclasses.replace(base, engine="vectorized")
        assert stable_key(base) != stable_key(vectorized)


class TestStatisticalEquivalence:
    def test_passes_for_supported_presets(self):
        for protocol in fleet.SUPPORTED_PROTOCOLS:
            report = statistical_equivalence(
                ScenarioConfig(
                    protocol=protocol,
                    intervals=12,
                    receivers=3,
                    buffers=3,
                    attack_fraction=0.5,
                    loss_probability=0.1,
                ),
                seeds=range(1, 6),
            )
            assert isinstance(report, EquivalenceReport)
            assert report.passes, protocol
            # Exact mirroring: every seed is byte-identical, not just
            # statistically indistinguishable.
            assert report.identical == len(report.seeds)
            assert report.auth_rate_diff.mean == 0.0
            assert report.attack_rate_diff.mean == 0.0

    def test_rejects_empty_seed_set(self):
        with pytest.raises(ConfigurationError):
            statistical_equivalence(ScenarioConfig(), seeds=[])
