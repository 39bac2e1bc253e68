"""Unit tests for the scenario runner (integration smoke lives in
tests/integration)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.scenario import ScenarioConfig, run_scenario


class TestScenarioConfig:
    def test_defaults_valid(self):
        assert ScenarioConfig().protocol == "dap"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(protocol="quic")

    def test_bad_numbers_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(intervals=2)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(receivers=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(buffers=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(attack_fraction=1.0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(disclosure_delay=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"loss_probability": 1.0, "loss_mean_burst": 3.0},
            {"loss_probability": 0.2, "loss_mean_burst": 0.5},
            {"loss_probability": 1.5},
            {"loss_probability": -0.1},
        ],
    )
    def test_bad_channel_rejected_at_construction(self, overrides):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**overrides)

    def test_bursty_limits_still_accepted(self):
        # Memoryless total loss and a burst length with no loss to shape
        # stay legal: neither builds a Gilbert-Elliott channel.
        ScenarioConfig(loss_probability=1.0)
        ScenarioConfig(loss_probability=0.0, loss_mean_burst=0.5)


class TestRunScenario:
    def test_deterministic_given_seed(self):
        config = ScenarioConfig(
            protocol="dap", intervals=20, attack_fraction=0.6, seed=42
        )
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.authentication_rate == b.authentication_rate
        assert a.forged_bandwidth_fraction == b.forged_bandwidth_fraction

    def test_seed_changes_outcome_under_attack(self):
        base = dict(protocol="dap", intervals=20, attack_fraction=0.7, buffers=2)
        a = run_scenario(ScenarioConfig(seed=1, **base))
        b = run_scenario(ScenarioConfig(seed=2, **base))
        # The reservoir's random choices differ; rates rarely coincide.
        assert (
            a.fleet.nodes[0].authenticated != b.fleet.nodes[0].authenticated
            or a.fleet.nodes[1].authenticated != b.fleet.nodes[1].authenticated
        )

    def test_clean_channel_full_authentication(self):
        result = run_scenario(ScenarioConfig(protocol="dap", intervals=15))
        assert result.authentication_rate == 1.0

    def test_measured_forged_fraction_tracks_config(self):
        result = run_scenario(
            ScenarioConfig(protocol="dap", intervals=20, attack_fraction=0.8)
        )
        assert result.forged_bandwidth_fraction > 0.5

    def test_attack_plus_auth_rates_sum_to_one_loss_free(self):
        result = run_scenario(
            ScenarioConfig(protocol="dap", intervals=20, attack_fraction=0.7)
        )
        assert result.authentication_rate + result.attack_success_rate == pytest.approx(
            1.0, abs=0.02
        )

    def test_simulated_time_covers_horizon(self):
        result = run_scenario(ScenarioConfig(protocol="dap", intervals=10))
        assert result.simulated_seconds >= 10.0

    def test_nodes_exposed_for_inspection(self):
        result = run_scenario(ScenarioConfig(protocol="dap", intervals=10, receivers=3))
        assert len(result.nodes) == 3

    def test_bursty_loss_configuration(self):
        result = run_scenario(
            ScenarioConfig(
                protocol="dap",
                intervals=30,
                loss_probability=0.3,
                loss_mean_burst=6.0,
            )
        )
        assert 0.0 < result.authentication_rate < 1.0
        assert result.fleet.total_forged_accepted == 0

    def test_bursty_harsher_than_memoryless_for_multilevel(self):
        """Same average loss, correlated fades: redundancy groups die
        together, so the multi-level family authenticates less."""
        rates = {}
        for label, burst in (("memoryless", None), ("bursty", 10.0)):
            rate = 0.0
            for seed in (1, 2, 3, 4):
                result = run_scenario(
                    ScenarioConfig(
                        protocol="multilevel",
                        intervals=40,
                        receivers=2,
                        loss_probability=0.3,
                        loss_mean_burst=burst,
                        seed=seed,
                    )
                )
                rate += result.authentication_rate / 4
            rates[label] = rate
        assert rates["bursty"] < rates["memoryless"]
