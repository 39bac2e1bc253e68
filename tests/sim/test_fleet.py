"""Vectorized fleet engine: exact parity with the DES across every
protocol family, and the sharding/streaming reduction."""

from __future__ import annotations

import dataclasses
import random
import sys
import time

import numpy as np
import pytest

from repro.engine import stable_key
from repro.engine.executors import Executor, ParallelExecutor
from repro.errors import ConfigurationError, SimulationError
from repro.net.harness import shard_sizes
from repro.protocols import base as protocol_base
from repro.protocols.multilevel import LOW_BUFFER_CAPACITY
from repro.scenarios.families import ALL_PROTOCOLS, MULTI_LEVEL
from repro.sim import fleet
from repro import perf
from repro.perf import names
from repro.crypto.kernels import fast_umac
from repro.sim.fleet import run_fleet_scenario, shard_plan, supports
from repro.sim.metrics import FleetAggregate
from repro.sim.scenario import ScenarioConfig, run_scenario
from repro.sim.workloads import workload_for
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync

#: The canonical catalog seeds (every dual-seed entry declares these).
CATALOG_SEEDS = (7, 11)


class _FailingShardExecutor(Executor):
    """A two-job executor whose shards die once the first one is in."""

    jobs = 2

    def stream(self, spec):
        yield 0, fleet._run_shard(spec.tasks[0])
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

    def test_parallel_executor_matches_serial(self):
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

    def test_failing_shard_reaches_the_caller(self):
        """A shard that dies mid-stream fails the run, not a silent
        partial summary."""
        config = ScenarioConfig(
            protocol="dap",
            intervals=6,
            receivers=4,
            buffers=3,
            attack_fraction=0.5,
            seed=7,
            engine="vectorized",
        )
        with pytest.raises(RuntimeError, match="shard worker died"):
            run_fleet_scenario(config, shards=2, executor=_FailingShardExecutor())


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
        summaries stay byte-identical with the switch on."""
        with fast_umac(True):
            for seed in range(1, 4):
                config = self._config(seed=seed)
                des = run_scenario(dataclasses.replace(config, engine="des"))
                assert run_fleet_scenario(config).fleet == des.fleet, seed

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


class _BranchProbe:
    """Records which multi-level replay branches fleet runs reach.

    Wraps the lockstep replay's reservoir offer and its ``_accept`` /
    ``_flush`` steps and calls through to them unchanged. Reservoirs
    are told apart by capacity, so the sweep keeps ``buffers`` below
    ``LOW_BUFFER_CAPACITY``.
    """

    def __init__(self, monkeypatch) -> None:
        self.reached = set()
        offer = fleet._offer
        accept = fleet._MultiLevelLockstep._accept
        flush = fleet._MultiLevelLockstep._flush

        def probed_offer(seen, held, pool, index, rows, entry, capacity, *rest):
            pool_name = "data" if capacity == LOW_BUFFER_CAPACITY else "cdm"
            if (seen[rows] >= capacity).any():
                self.reached.add(f"{pool_name} overflow")
            offer(seen, held, pool, index, rows, entry, capacity, *rest)

        def probed_accept(replay, highs, rows):
            if rows.size and sys._getframe(1).f_code.co_name == "_cdm":
                self.reached.add("pinned acceptance")
            accept(replay, highs, rows)

        def probed_flush(replay, chains, rows, counted):
            before = int(replay.data_stored.sum())
            flush(replay, chains, rows, counted)
            if not counted and int(replay.data_stored.sum()) < before:
                self.reached.add("uncounted flush")

        monkeypatch.setattr(fleet, "_offer", probed_offer)
        monkeypatch.setattr(fleet._MultiLevelLockstep, "_accept", probed_accept)
        monkeypatch.setattr(fleet._MultiLevelLockstep, "_flush", probed_flush)


def _random_multilevel_config(rng: random.Random, seed: int) -> ScenarioConfig:
    bursty = rng.random() < 0.5
    return ScenarioConfig(
        protocol=rng.choice(MULTI_LEVEL),
        intervals=rng.randint(6, 24),
        receivers=rng.randint(2, 6),
        buffers=rng.randint(1, 6),
        cdm_copies=rng.randint(1, 10),
        low_per_high=rng.randint(2, 6),
        attack_fraction=rng.choice([0.0, rng.uniform(0.1, 0.95), 0.95]),
        loss_probability=rng.uniform(0.0, 0.5),
        loss_mean_burst=rng.uniform(1.5, 6.0) if bursty else None,
        disclosure_delay=rng.choice([2, 3]),
        packets_per_interval=rng.choice([1, 2, 9, 12]),
        seed=seed,
        engine="vectorized",
    )


class TestMultiLevelLockstep:
    """The slot-lockstep replay of multilevel / eftp / edrp."""

    def test_random_configs_match_the_des_across_branches(self, monkeypatch):
        """Sixty seeded configs, byte-identical to the DES, between them
        reaching CDM and data-bucket overflow, EDRP pinned acceptance
        and the uncounted flush after a CDM commitment. The branches no
        config reaches are exercised on a crafted plan below."""
        probe = _BranchProbe(monkeypatch)
        rng = random.Random(20240615)
        for seed in range(60):
            config = _random_multilevel_config(rng, seed)
            result = _assert_identical(config)
            assert result.fleet.total_forged_accepted == 0, config
        assert probe.reached == {
            "cdm overflow",
            "data overflow",
            "pinned acceptance",
            "uncounted flush",
        }

    def test_receiver_blocks_do_not_change_the_replay(self, monkeypatch):
        """Ten receivers in blocks of three: the last block is short,
        and every block starts its state afresh."""
        monkeypatch.setattr(fleet, "_LOCKSTEP_BLOCK", 3)
        _assert_identical(
            ScenarioConfig(
                protocol="edrp",
                intervals=18,
                receivers=10,
                buffers=2,
                cdm_copies=6,
                low_per_high=3,
                attack_fraction=0.8,
                loss_probability=0.3,
                loss_mean_burst=3.0,
                packets_per_interval=9,
                seed=3,
                engine="vectorized",
            )
        )

    def test_stale_disclosure_and_late_record_on_a_crafted_plan(self):
        """Disclosures arrive in flat order and records before their
        key, so no config sends a stale low-key disclosure or a record
        for an already-released sub-interval. Append both to a built
        plan: as in the DES receiver, the disclosure is a weak-auth
        rejection, and the record re-creates its released bucket and is
        authenticated at once under the trusted key."""
        config = ScenarioConfig(
            protocol="multilevel", intervals=12, receivers=3, engine="vectorized"
        )
        plan = fleet._build_plan(
            config,
            IntervalSchedule(0.0, config.interval_duration),
            LooseTimeSync(config.max_offset),
            workload_for(config),
            random.Random(1),
        )
        late = float(plan.times[-1]) + 1.0
        crafted = dataclasses.replace(
            plan,
            times=np.append(plan.times, [late, late]),
            kinds=plan.kinds + [fleet._DISC, fleet._DATA],
            index=plan.index + [1, 1],
            sources=plan.sources + [0, 0],
            gate=plan.gate + [True, True],
            disc_index=plan.disc_index + [-1, -1],
        )
        seeds = list(range(config.receivers))
        auth, _lost, _rejf, weak, _disc, _facc, recv, _peak = (
            fleet._replay_multilevel(
                plan, config, seeds, np.ones((len(plan.times), 3), dtype=bool)
            )
        )
        counts = fleet._replay_multilevel(
            crafted, config, seeds, np.ones((len(crafted.times), 3), dtype=bool)
        )
        assert counts[0] == [n + 1 for n in auth]
        assert counts[3] == [n + 1 for n in weak]
        assert counts[6] == [n + 2 for n in recv]

    @pytest.mark.parametrize("table", ["forged_mac_valid", "forged_pin_match"])
    def test_forged_collision_is_a_simulation_error(self, table):
        """A forged CDM passing its MAC check or matching an EDRP pin is
        a 2^-80 collision the replay cannot mirror: it must raise, not
        carry on with a corrupted commitment."""
        config = ScenarioConfig(
            protocol="edrp",
            intervals=12,
            receivers=4,
            buffers=2,
            attack_fraction=0.8,
            seed=7,
            engine="vectorized",
        )
        plan = fleet._build_plan(
            config,
            IntervalSchedule(0.0, config.interval_duration),
            LooseTimeSync(config.max_offset),
            workload_for(config),
            random.Random(1),
        )
        delivered = np.ones((len(plan.times), config.receivers), dtype=bool)
        seeds = list(range(config.receivers))
        fleet._replay_multilevel(plan, config, seeds, delivered)
        forged = dataclasses.replace(
            plan, **{table: [True] * len(getattr(plan, table))}
        )
        with pytest.raises(SimulationError, match="2\\^-80 collision"):
            fleet._replay_multilevel(forged, config, seeds, delivered)


class TestLayerTimers:
    def test_layer_spans_add_up_to_the_run(self):
        """With a registry active, the plan build, shard replay and
        reduction spans partition the run's wall time; the inline
        shards' delivery masks are timed inside the replay."""
        config = ScenarioConfig(
            protocol="edrp",
            intervals=20,
            receivers=3000,
            buffers=4,
            attack_fraction=0.8,
            loss_probability=0.2,
            seed=7,
            engine="vectorized",
        )
        spans = (
            names.SIM_FLEET_PLAN,
            names.SIM_FLEET_REPLAY,
            names.SIM_FLEET_REDUCE,
        )
        with perf.collecting() as registry:
            started = time.perf_counter()
            run_fleet_scenario(config, shards=2)
            wall = time.perf_counter() - started
        timers = registry.timers
        assert all(timers[span] > 0.0 for span in (*spans, names.SIM_FLEET_MASK))
        assert abs(sum(timers[span] for span in spans) - wall) <= 0.1 * wall
        assert timers[names.SIM_FLEET_MASK] < timers[names.SIM_FLEET_REPLAY]


class TestCacheKeys:
    def test_engines_never_alias_in_the_result_cache(self):
        base = ScenarioConfig(protocol="dap", intervals=10, receivers=2)
        vectorized = dataclasses.replace(base, engine="vectorized")
        assert stable_key(base) != stable_key(vectorized)
