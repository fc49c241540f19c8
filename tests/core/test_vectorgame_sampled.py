"""The sampled game kernel pinned to an independent reference.

:func:`repro.core.vectorgame.play_pairs_uniforms` promises that a
``(rounds, D, G)`` uniform block drawn in one call replays
:func:`repro.core.vectorgame.play_pairs` on a same-seed generator bit for
bit.  The sampled lane-parity suites send both sides of every comparison
through the same kernel, so they cannot see a kernel that changed bits;
these tests can:

* **parity** — bytes-equal payoffs against ``play_pairs`` and against
  :func:`reference_play`, a plain two-view round loop kept here, over
  memory 1–3, pure and mixed tables, three noise levels, an integer and
  a non-integer payoff matrix, and batch sizes from 0 to 1000 games;
* **golden** — a sha256 of one fixed ``sampled_batched`` ensemble run's
  final populations and event fitness values;
* **input errors** — out-of-range table rows and non-float64 uniform
  blocks fail loudly instead of playing the wrong game.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import EvolutionConfig
from repro.core.payoff import PAPER_PAYOFF, PayoffMatrix
from repro.core.strategy import random_mixed, random_pure
from repro.core.vectorgame import (
    cycle_payoffs_pairs,
    play_pairs,
    play_pairs_uniforms,
    sampled_draws_per_round,
    stack_tables,
)
from repro.ensemble import run_ensemble
from repro.errors import ConfigurationError
from repro.rng import make_rng

ROUNDS = 23
N_STRATEGIES = 6
PAYOFFS = {
    "paper": PAPER_PAYOFF,
    "non-integer": PayoffMatrix(3.1, 0.3, 5.7, 1.3),
}
#: (mixed, noise): noiseless play is only sampled for mixed tables.
REGIMES = [
    (False, 0.01),
    (False, 0.3),
    (True, 0.0),
    (True, 0.01),
    (True, 0.3),
]


def pairing(memory, mixed, n_games):
    """``N_STRATEGIES`` random strategies and ``n_games`` random pairings."""
    rng = make_rng(1000 * memory + 10 * int(mixed))
    make = random_mixed if mixed else random_pure
    strategies = [make(rng, memory) for _ in range(N_STRATEGIES)]
    a_idx = rng.integers(0, N_STRATEGIES, size=n_games)
    b_idx = rng.integers(0, N_STRATEGIES, size=n_games)
    return strategies, a_idx, b_idx


def reference_play(tables, a_idx, b_idx, rounds, payoff, noise, uniforms):
    """The plain two-view loop: each side tracks its own view and reads
    its own draw slots, in stream order ``[a_mix?, a_noise?, b_mix?,
    b_noise?]``."""
    mixed = tables.dtype != np.uint8
    mask = tables.shape[1] - 1
    slots = iter(range(uniforms.shape[1]))
    draw = {
        side: (next(slots) if mixed else None,
               next(slots) if noise > 0.0 else None)
        for side in "ab"
    }
    views = {"a": np.zeros(len(a_idx), np.int64),
             "b": np.zeros(len(a_idx), np.int64)}
    pay = {"a": np.zeros(len(a_idx)), "b": np.zeros(len(a_idx))}
    for r in range(rounds):
        moves = {}
        for side, idx in (("a", a_idx), ("b", b_idx)):
            move = tables[idx, views[side]]
            mix, flip = draw[side]
            if mix is not None:
                move = uniforms[r, mix] < move
            if flip is not None:
                move = move ^ (uniforms[r, flip] < noise)
            moves[side] = move.astype(np.int64)
        for me, other in (("a", "b"), ("b", "a")):
            code = 2 * moves[me] + moves[other]
            pay[me] = pay[me] + payoff.vector[code]
            views[me] = ((views[me] << 2) | code) & mask
    return pay["a"], pay["b"]


@pytest.mark.parametrize("n_games", [0, 1, 7, 90, 1000])
@pytest.mark.parametrize("payoff", sorted(PAYOFFS))
@pytest.mark.parametrize("mixed,noise", REGIMES)
@pytest.mark.parametrize("memory", [1, 2, 3])
def test_uniforms_kernel_replays_play_pairs(memory, mixed, noise, payoff,
                                            n_games):
    strategies, a_idx, b_idx = pairing(memory, mixed, n_games)
    matrix = PAYOFFS[payoff]
    ref_a, ref_b = play_pairs(
        strategies, a_idx, b_idx, ROUNDS, matrix, noise=noise,
        rng=make_rng(77),
    )
    tables, _, _ = stack_tables(strategies)
    draws = sampled_draws_per_round(mixed, noise)
    uniforms = make_rng(77).random((ROUNDS, draws, n_games))
    got_a, got_b = play_pairs_uniforms(
        tables, a_idx, b_idx, ROUNDS, matrix, noise, uniforms
    )
    assert got_a.dtype == got_b.dtype == np.float64
    assert got_a.tobytes() == ref_a.tobytes()
    assert got_b.tobytes() == ref_b.tobytes()
    own_a, own_b = reference_play(
        tables, a_idx, b_idx, ROUNDS, matrix, noise, uniforms
    )
    assert got_a.tobytes() == own_a.tobytes()
    assert got_b.tobytes() == own_b.tobytes()


#: sha256 over the golden ensemble's final strategy matrices and event
#: fitness values, lane by lane.
GOLDEN_SHA256 = (
    "548621ea92094acab6d7af89d405c8ab6952ea4105d7a8fbcb0369a679eb0943"
)


def test_golden_sampled_ensemble():
    base = dict(n_ssets=8, generations=400, rounds=16, sampled_batched=True)
    configs = [
        EvolutionConfig(seed=41, memory_steps=1, noise=0.05, **base),
        EvolutionConfig(seed=42, memory_steps=2, noise=0.01,
                        payoff=PAYOFFS["non-integer"], **base),
        EvolutionConfig(seed=43, memory_steps=1, noise=0.02,
                        mixed_strategies=True, **base),
    ]
    digest = hashlib.sha256()
    for result in run_ensemble(configs):
        digest.update(
            np.ascontiguousarray(result.population.strategy_matrix())
            .tobytes()
        )
        fitness = np.array(
            [(e.teacher_fitness, e.learner_fitness) for e in result.events],
            dtype=np.float64,
        )
        digest.update(fitness.tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256


class TestInputErrors:
    def setup_method(self):
        strategies, _, _ = pairing(2, False, 0)
        self.tables, _, _ = stack_tables(strategies)
        self.uniforms = make_rng(3).random((ROUNDS, 2, 3))

    def play(self, a_idx, b_idx, uniforms=None):
        return play_pairs_uniforms(
            self.tables, np.array(a_idx), np.array(b_idx), ROUNDS,
            PAPER_PAYOFF, 0.05,
            self.uniforms if uniforms is None else uniforms,
        )

    def test_negative_row_is_rejected(self):
        with pytest.raises(ConfigurationError, match="a_idx holds row -1"):
            self.play([0, -1, 2], [0, 1, 2])

    def test_row_past_the_tables_is_rejected(self):
        with pytest.raises(ConfigurationError, match="b_idx holds row 6"):
            self.play([0, 1, 2], [0, 6, 2])

    def test_cycle_kernel_rejects_bad_rows(self):
        with pytest.raises(ConfigurationError, match="a_idx holds row -2"):
            cycle_payoffs_pairs(self.tables, np.array([-2]), np.array([0]), 5)
        with pytest.raises(ConfigurationError, match="b_idx holds row 9"):
            cycle_payoffs_pairs(self.tables, np.array([0]), np.array([9]), 5)

    def test_play_pairs_rejects_bad_rows(self):
        strategies, _, _ = pairing(1, False, 0)
        with pytest.raises(ConfigurationError, match="a_idx holds row -1"):
            play_pairs(strategies, [-1], [0], ROUNDS)

    def test_float32_uniforms_are_rejected(self):
        with pytest.raises(ConfigurationError, match="float64"):
            self.play([0, 1, 2], [0, 1, 2], self.uniforms.astype(np.float32))

    def test_sampled_play_needs_an_rng(self):
        strategies, _, _ = pairing(1, True, 0)
        with pytest.raises(ConfigurationError, match="require an rng"):
            play_pairs(strategies, [0], [1], ROUNDS)
