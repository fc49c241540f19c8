"""Tests for the serial, event-driven, and baseline drivers."""

import numpy as np
import pytest

from repro.core import (
    EvolutionConfig,
    PayoffCache,
    Population,
    all_d,
    run_baseline,
    run_event_driven,
    run_serial,
    wsls,
)
from repro.errors import ConfigurationError


class TestConfigValidation:
    def test_defaults_are_paper_parameters(self):
        cfg = EvolutionConfig()
        assert cfg.rounds == 200
        assert cfg.pc_rate == 0.10
        assert cfg.mutation_rate == 0.05
        assert list(cfg.payoff.vector) == [3, 0, 4, 1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(memory_steps=0),
            dict(n_ssets=1),
            dict(generations=-1),
            dict(agents_per_sset=0),
            dict(rounds=0),
            dict(pc_rate=1.5),
            dict(mutation_rate=-0.1),
            dict(beta=-1),
            dict(noise=2),
            dict(record_every=-5),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EvolutionConfig(**kwargs)

    def test_with_updates(self):
        cfg = EvolutionConfig().with_updates(n_ssets=128)
        assert cfg.n_ssets == 128
        assert cfg.rounds == 200

    def test_population_size(self):
        cfg = EvolutionConfig(n_ssets=10, agents_per_sset=7)
        assert cfg.population_size == 70

    def test_is_stochastic(self):
        assert not EvolutionConfig().is_stochastic
        assert EvolutionConfig(noise=0.01).is_stochastic
        assert EvolutionConfig(mixed_strategies=True).is_stochastic


class TestTrajectoryEquivalence:
    """The paper-critical property: all drivers walk the same Markov chain."""

    @pytest.mark.parametrize("seed", [1, 7, 2013])
    def test_serial_equals_event_driven(self, seed, small_config):
        cfg = small_config.with_updates(seed=seed)
        r1 = run_serial(cfg)
        r2 = run_event_driven(cfg)
        assert r1.events == r2.events
        assert np.array_equal(
            r1.population.strategy_matrix(), r2.population.strategy_matrix()
        )
        assert r1.n_adoptions == r2.n_adoptions
        assert r1.n_mutations == r2.n_mutations

    def test_event_driven_batch_size_invariance(self, small_config):
        r1 = run_event_driven(small_config, batch_size=17)
        r2 = run_event_driven(small_config, batch_size=1 << 16)
        assert r1.events == r2.events
        assert np.array_equal(
            r1.population.strategy_matrix(), r2.population.strategy_matrix()
        )

    def test_baseline_matches_sset_drivers(self):
        # agents_per_sset=1 makes the traditional algorithm's population
        # identical; fitness values agree because games are deterministic.
        cfg = EvolutionConfig(
            n_ssets=8, generations=400, rounds=32, agents_per_sset=1, seed=5
        )
        ref = run_serial(cfg)
        base = run_baseline(cfg)
        assert ref.events == base.events
        assert np.array_equal(
            ref.population.strategy_matrix(), base.population.strategy_matrix()
        )

    def test_stochastic_equivalence_with_noise(self):
        # Lazy fitness means both drivers consume the games stream only at
        # events, so even noisy runs match exactly.
        cfg = EvolutionConfig(
            n_ssets=8, generations=500, rounds=16, noise=0.05, seed=3
        )
        r1 = run_serial(cfg)
        r2 = run_event_driven(cfg)
        assert r1.events == r2.events

    def test_mixed_strategy_equivalence(self):
        cfg = EvolutionConfig(
            n_ssets=8, generations=300, rounds=16, mixed_strategies=True, seed=4
        )
        r1 = run_serial(cfg)
        r2 = run_event_driven(cfg)
        assert r1.events == r2.events


class TestLegacyCacheSubstitution:
    """``cache=`` swaps in the legacy payoff evaluator as a reference."""

    @pytest.mark.parametrize("driver", [run_serial, run_event_driven])
    def test_cache_matches_default_trajectory(self, driver, small_config):
        reference = driver(small_config)
        cache = PayoffCache(small_config.rounds, small_config.payoff)
        legacy = driver(small_config, cache=cache)
        assert legacy.events == reference.events
        assert np.array_equal(
            legacy.population.strategy_matrix(),
            reference.population.strategy_matrix(),
        )
        # The supplied cache did the work, with no engine bound.
        assert cache.misses > 0 and len(cache) > 0
        assert legacy.population.engine is None
        assert reference.population.engine is not None

    @pytest.mark.parametrize("driver", [run_serial, run_event_driven])
    def test_evaluator_keyword_is_gone(self, driver, small_config):
        """Only ``cache=`` substitutes the evaluator now."""
        cache = PayoffCache(small_config.rounds, small_config.payoff)
        with pytest.raises(TypeError, match="evaluator"):
            driver(small_config, evaluator=cache)


class TestDynamicsBehaviour:
    def test_population_size_constant(self, small_config):
        result = run_event_driven(small_config)
        assert len(result.population) == small_config.n_ssets
        assert result.population.histogram.total == small_config.n_ssets

    def test_event_rates_match_configuration(self):
        cfg = EvolutionConfig(n_ssets=8, generations=20_000, rounds=8, seed=11)
        result = run_event_driven(cfg)
        # Binomial(20000, 0.1) and (20000, 0.05): allow 5 sigma.
        assert abs(result.n_pc_events - 2000) < 5 * np.sqrt(20_000 * 0.1 * 0.9)
        assert abs(result.n_mutations - 1000) < 5 * np.sqrt(20_000 * 0.05 * 0.95)

    def test_zero_rates_freeze_population(self):
        cfg = EvolutionConfig(
            n_ssets=8, generations=5_000, rounds=8, pc_rate=0, mutation_rate=0
        )
        result = run_event_driven(cfg)
        assert result.n_pc_events == 0
        assert result.n_mutations == 0
        first = result.snapshots[0].strategy_matrix
        last = result.snapshots[-1].strategy_matrix
        assert np.array_equal(first, last)

    def test_learner_adopts_fitter_teacher_only(self, small_config):
        result = run_event_driven(small_config)
        for ev in result.events:
            if ev.kind == "pc" and ev.applied:
                assert ev.teacher_fitness > ev.learner_fitness

    def test_selection_drives_out_weak_strategies(self):
        # Start from 4 ALLD vs 12 WSLS.  At that split WSLS is fitter
        # (11*300 + 4*50 = 3500 vs 3*100 + 12*250 = 3300 at 100 rounds) and
        # its advantage grows as it spreads, so selection should fix it.
        strategies = [all_d(1)] * 4 + [wsls(1)] * 12
        pop = Population.from_strategies(strategies)
        cfg = EvolutionConfig(
            n_ssets=16,
            generations=4_000,
            rounds=100,
            mutation_rate=0.0,
            pc_rate=0.2,
            beta=1.0,
            seed=21,
        )
        result = run_serial(cfg, population=pop)
        assert result.population.share_of(wsls(1)) > 0.5

    def test_snapshots_alignment(self):
        cfg = EvolutionConfig(
            n_ssets=8, generations=1_000, rounds=8, record_every=100, seed=2
        )
        r1 = run_serial(cfg)
        r2 = run_event_driven(cfg)
        gens1 = [s.generation for s in r1.snapshots]
        gens2 = [s.generation for s in r2.snapshots]
        assert gens1 == gens2
        for s1, s2 in zip(r1.snapshots, r2.snapshots):
            assert np.array_equal(s1.strategy_matrix, s2.strategy_matrix)

    def test_summary_mentions_dominant(self, small_config):
        result = run_event_driven(small_config)
        assert "dominant strategy" in result.summary()

    def test_zero_generations(self):
        cfg = EvolutionConfig(n_ssets=4, generations=0, rounds=8)
        result = run_serial(cfg)
        assert result.generations_run == 0
        assert result.events == []


class TestBaselineRestrictions:
    def test_baseline_rejects_stochastic(self):
        with pytest.raises(NotImplementedError):
            run_baseline(EvolutionConfig(noise=0.1, n_ssets=4, generations=10))

    def test_baseline_is_slower_than_cached_driver(self):
        cfg = EvolutionConfig(n_ssets=12, generations=300, rounds=100, seed=9)
        fast = run_event_driven(cfg)
        slow = run_baseline(cfg)
        # Same science...
        assert fast.events == slow.events
        # ... but the cached driver avoids replaying games.
        assert fast.cache_hits > 0
