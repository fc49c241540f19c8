"""Tests for the vectorised one-vs-many Markov kernel and expected-fitness mode."""

import numpy as np
import pytest

from repro.core import (
    EvolutionConfig,
    PayoffCache,
    StrategyHistogram,
    expected_payoffs,
    gtft,
    random_mixed,
    random_pure,
    run_event_driven,
    run_serial,
    tft,
    wsls,
)
from repro.core.cycle import exact_payoffs
from repro.core.markov import expected_payoffs_many
from repro.rng import make_rng


class TestBatchKernel:
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_matches_scalar_markov(self, noise):
        rng = make_rng(3)
        a = random_pure(rng, 2)
        opponents = [random_pure(rng, 2) for _ in range(7)]
        to_a, to_b = expected_payoffs_many(a, opponents, 60, noise=noise)
        for i, b in enumerate(opponents):
            ref_a, ref_b, _ = expected_payoffs(a, b, 60, noise=noise)
            assert to_a[i] == pytest.approx(ref_a)
            assert to_b[i] == pytest.approx(ref_b)

    def test_mixed_strategies(self):
        rng = make_rng(5)
        a = gtft(0.3, 1)
        opponents = [random_mixed(rng, 1) for _ in range(5)]
        to_a, _ = expected_payoffs_many(a, opponents, 40)
        for i, b in enumerate(opponents):
            ref_a, _, _ = expected_payoffs(a, b, 40)
            assert to_a[i] == pytest.approx(ref_a)

    def test_empty_opponents(self):
        to_a, to_b = expected_payoffs_many(tft(1), [], 10)
        assert to_a.shape == (0,) and to_b.shape == (0,)


class TestExpectedCache:
    def test_expected_mode_caches_noisy_pairs(self):
        cache = PayoffCache(rounds=50, noise=0.05, expected=True)
        first = cache.pair_payoffs(tft(1), wsls(1))
        second = cache.pair_payoffs(tft(1), wsls(1))
        assert first == second
        assert cache.hits == 1

    def test_payoffs_to_many_consistent_with_pairs(self):
        cache = PayoffCache(rounds=50, noise=0.02, expected=True)
        opponents = [tft(1), wsls(1), random_pure(make_rng(1), 1)]
        batch = cache.payoffs_to_many(wsls(1), opponents)
        for i, b in enumerate(opponents):
            assert batch[i] == pytest.approx(cache.payoff_to(wsls(1), b))

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_payoffs_to_many_bytes_equal_to_batch_kernel(self, noise):
        """Both directions of every batched miss land in the cache exactly
        as the one-vs-many kernel produced them."""
        rng = make_rng(21)
        a = random_pure(rng, 2)
        opponents = [random_pure(rng, 2) for _ in range(6)]
        cache = PayoffCache(rounds=50, noise=noise, expected=True)
        batch = cache.payoffs_to_many(a, opponents)
        to_a, to_b = expected_payoffs_many(a, opponents, 50, noise=noise)
        assert batch.tobytes() == to_a.tobytes()
        assert (cache.hits, cache.misses) == (0, len(opponents))
        for i, b in enumerate(opponents):
            assert cache.pair_payoffs(b, a) == (to_b[i], to_a[i])
        assert cache.hits == len(opponents)

    def test_payoffs_to_many_evaluates_only_missing(self):
        rng = make_rng(22)
        a = random_mixed(rng, 1)
        opponents = [random_mixed(rng, 1) for _ in range(4)]
        cache = PayoffCache(rounds=40, noise=0.01, expected=True)
        cache.pair_payoffs(a, opponents[1])
        cache.enable_eval_log()
        first = cache.payoffs_to_many(a, opponents)
        assert (cache.hits, cache.misses) == (1, 4)
        missing = [opponents[i] for i in (0, 2, 3)]
        assert cache._eval_log == [("many", a, missing)]
        again = cache.payoffs_to_many(a, opponents)
        assert again.tobytes() == first.tobytes()
        assert (cache.hits, cache.misses) == (5, 4)
        assert len(cache._eval_log) == 1

    def test_payoffs_to_many_per_pair_outside_expected_mode(self):
        """Pure noiseless play takes the exact cycle path pair by pair."""
        rng = make_rng(23)
        a = random_pure(rng, 2)
        opponents = [random_pure(rng, 2) for _ in range(3)]
        cache = PayoffCache(rounds=50)
        cache.enable_eval_log()
        batch = cache.payoffs_to_many(a, opponents)
        for i, b in enumerate(opponents):
            assert batch[i] == exact_payoffs(a, b, 50)[0]
        assert [entry[0] for entry in cache._eval_log] == ["pair"] * 3

    def test_histogram_fitness_expected_mode(self):
        hist = StrategyHistogram.from_strategies([tft(1), tft(1), wsls(1)])
        cache = PayoffCache(rounds=50, noise=0.01, expected=True)
        fit = hist.fitness_of(wsls(1), cache)
        expected = (
            2 * expected_payoffs(wsls(1), tft(1), 50, noise=0.01)[0]
            + expected_payoffs(wsls(1), wsls(1), 50, noise=0.01)[0]
            - expected_payoffs(wsls(1), wsls(1), 50, noise=0.01)[0]
        )
        assert fit == pytest.approx(expected)


class TestExpectedFitnessEvolution:
    def test_noisy_runs_deterministic(self):
        cfg = EvolutionConfig(
            n_ssets=12, generations=2_000, rounds=32, noise=0.02,
            expected_fitness=True, seed=8,
        )
        a = run_event_driven(cfg)
        b = run_event_driven(cfg)
        assert a.events == b.events
        assert not cfg.is_stochastic  # expectation replaces sampling

    def test_serial_equals_event_driven_with_expected_fitness(self):
        cfg = EvolutionConfig(
            n_ssets=10, generations=1_500, rounds=32, noise=0.02,
            expected_fitness=True, seed=9,
        )
        assert run_serial(cfg).events == run_event_driven(cfg).events

    def test_mixed_population_evolves(self):
        cfg = EvolutionConfig(
            n_ssets=8, generations=3_000, rounds=32,
            mixed_strategies=True, expected_fitness=True, seed=10,
        )
        result = run_event_driven(cfg)
        assert result.n_mutations > 0
        matrix = result.population.strategy_matrix()
        assert matrix.dtype == np.float64
        assert ((matrix >= 0) & (matrix <= 1)).all()
