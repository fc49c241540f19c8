"""Vectorised iterated-game kernels (the "thread-level" inner loop).

The paper parallelises the per-SSet game loop across OpenMP threads; in
NumPy the analogous optimisation is to advance *all* pairings one round at a
time with fancy indexing, so the per-round work is a handful of vector ops
instead of a Python-level loop per game.

Entry points:

* :func:`play_pairs` — arbitrary (a, b) pairings given as index arrays;
* :func:`play_pairs_uniforms` — the same round loop over pre-stacked
  tables and a pre-drawn uniform block (the batched sampled engine's kernel);
* :func:`payoff_matrix` — all ordered pairs among K strategies at once,
  which is exactly the per-generation fitness kernel of the population model
  (every SSet plays every strategy).

All are bit-for-bit equal to :func:`repro.core.game.play_game` for pure
strategies without noise, and distributionally equal otherwise (they are
validated against the scalar engine in the test suite).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError, StrategyError
from .payoff import PAPER_PAYOFF, PayoffMatrix
from .states import swap_perspective_array
from .strategy import Strategy

__all__ = [
    "stack_tables",
    "play_pairs",
    "play_pairs_uniforms",
    "sampled_draws_per_round",
    "payoff_matrix",
    "cycle_payoffs_pairs",
]


def stack_tables(strategies: list[Strategy]) -> tuple[np.ndarray, int, bool]:
    """Stack strategy tables into one (K, 4**n) array.

    Returns ``(tables, memory_steps, any_mixed)``.  Pure tables are stacked
    as uint8; if any strategy is mixed, everything is cast to defection
    probabilities (float64).
    """
    if not strategies:
        raise StrategyError("need at least one strategy")
    n = strategies[0].memory_steps
    if any(s.memory_steps != n for s in strategies):
        raise StrategyError("all strategies must share memory_steps")
    any_mixed = any(not s.is_pure for s in strategies)
    if any_mixed:
        tables = np.stack([s.defect_probabilities() for s in strategies])
    else:
        tables = np.stack([s.table for s in strategies])
    return tables, n, any_mixed


@lru_cache(maxsize=8)
def _mirror_row(n_states: int) -> np.ndarray:
    """Cached perspective-swap permutation (read-only) for one state count.

    Recomputing it per call was a measurable fixed cost of the engines'
    small fill batches.
    """
    memory_steps = (n_states.bit_length() - 1) // 2
    mirror = swap_perspective_array(np.arange(n_states), memory_steps)
    mirror.flags.writeable = False
    return mirror


def _check_pairs(
    a_idx: np.ndarray, b_idx: np.ndarray, rounds: int, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``intp`` copies of a batch's table-row indices.

    A negative index would otherwise silently play the last table.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    a_idx = np.asarray(a_idx, dtype=np.intp)
    b_idx = np.asarray(b_idx, dtype=np.intp)
    if a_idx.shape != b_idx.shape or a_idx.ndim != 1:
        raise ConfigurationError("a_idx and b_idx must be equal-length 1-D arrays")
    for name, idx in (("a_idx", a_idx), ("b_idx", b_idx)):
        if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
            bad = idx[(idx < 0) | (idx >= n_rows)][0]
            raise ConfigurationError(
                f"{name} holds row {bad}, outside the {n_rows} stacked tables"
            )
    return a_idx, b_idx


def _play_rounds(xb, tables, a_idx, b_idx, rounds, payoff, noise, uniforms):
    """The round loop behind :func:`play_pairs` and
    :func:`play_pairs_uniforms`, on the ``repro.xp`` seam.

    B's view is always ``mirror[A's view]``, so each game tracks one view
    and reads B's move from a pre-mirrored copy of the tables.  The noise
    flips of every round are compared against ``noise`` up front into one
    ``2*flip_a + flip_b`` code block, so a round costs two flat gathers,
    the move code, two payoff gathers and the view update.  Both payoffs
    accumulate in round order, as the scalar engine's do.
    """
    xp = xb.xp
    n_states = tables.shape[1]
    mixed = tables.dtype != np.uint8
    mirrored = tables[:, _mirror_row(n_states)]
    if mixed:
        flat_a, flat_b = tables.ravel(), mirrored.ravel()
    else:  # pure moves pre-shifted into their code bits
        flat_a = 2 * tables.astype(np.int64).ravel()
        flat_b = mirrored.astype(np.int64).ravel()
    flat_a, flat_b = xb.to_device(flat_a), xb.to_device(flat_b)
    off_a = xb.to_device(a_idx * n_states)
    off_b = xb.to_device(b_idx * n_states)
    u = xb.to_device(uniforms)
    if noise > 0.0:
        noise_a, noise_b = (1, 3) if mixed else (0, 1)
        flips = 2 * (u[:, noise_a] < noise).astype(xp.int64) + (
            u[:, noise_b] < noise
        )
    mix_b = 2 if noise > 0.0 else 1
    vec = xb.to_device(payoff.vector)
    vec_b = xb.to_device(payoff.vector[[0, 2, 1, 3]])  # B's payoff per code
    views = xp.zeros(a_idx.shape[0], dtype=xp.int64)
    pay_a = pay_b = xp.zeros(a_idx.shape[0], dtype=xp.float64)
    for r in range(rounds):
        if mixed:
            code = 2 * (u[r, 0] < flat_a[off_a + views]) + (
                u[r, mix_b] < flat_b[off_b + views]
            )
        else:
            code = flat_a[off_a + views] | flat_b[off_b + views]
        if noise > 0.0:
            code = code ^ flips[r]
        pay_a = pay_a + vec[code]
        pay_b = pay_b + vec_b[code]
        views = ((views << 2) | code) & (n_states - 1)
    return xb.to_host(pay_a), xb.to_host(pay_b)


def play_pairs(
    strategies: list[Strategy],
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    rounds: int,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Play ``len(a_idx)`` independent games simultaneously.

    Returns ``(payoffs_a, payoffs_b)`` — total payoffs per game to the
    a-side and b-side players.  Sampled games (noise or mixed strategies)
    draw their whole ``(rounds, D, n_games)`` uniform block from ``rng``
    up front; see :func:`play_pairs_uniforms`.
    """
    from ..xp import get_array_backend

    tables, _, mixed = stack_tables(strategies)
    a_idx, b_idx = _check_pairs(a_idx, b_idx, rounds, tables.shape[0])
    shape = (rounds, sampled_draws_per_round(mixed, noise), a_idx.shape[0])
    if shape[1] and rng is None:
        raise ConfigurationError("noise > 0 or mixed strategies require an rng")
    uniforms = rng.random(shape) if shape[1] else np.empty(shape)
    return _play_rounds(
        get_array_backend(), tables, a_idx, b_idx, rounds, payoff, noise,
        uniforms,
    )


def sampled_draws_per_round(mixed: bool, noise: float) -> int:
    """Uniform draws one round of :func:`play_pairs` consumes per game.

    The per-round draw slots, in stream order, are ``[a_mix?, a_noise?,
    b_mix?, b_noise?]`` — a mixed-table move draw and a noise-flip draw per
    side, each present only when the regime uses it.  ``mixed`` must be the
    *configuration's* mixed flag (a mixed run stacks float tables even when
    every live strategy happens to be pure, and float tables always consume
    the move draw), not a property of the current strategies.
    """
    return (2 if mixed else 0) + (2 if noise > 0.0 else 0)


def play_pairs_uniforms(
    tables,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    rounds: int,
    payoff: PayoffMatrix,
    noise: float,
    uniforms: np.ndarray,
    xb=None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`play_pairs` over pre-drawn uniforms, on the ``repro.xp`` seam.

    ``uniforms`` has shape ``(rounds, D, n_games)`` with ``D =``
    :func:`sampled_draws_per_round`; slot ``uniforms[r, s]`` is the
    ``s``-th draw of round ``r``.  :func:`play_pairs` draws exactly this
    block from its ``rng``, so ``play_pairs_uniforms(...,
    uniforms=rng.random((rounds, D, G)))`` is **bit-identical** to
    ``play_pairs(..., rng=rng)`` on the same pairings.  The block must be
    float64: a narrower one compares differently against ``noise`` and
    the mix probabilities.  Every per-round operation is elementwise per
    game, so concatenating several callers' games (and their uniform
    blocks) along the games axis preserves each caller's bits — the
    property the batched sampled engine uses to fuse one generation's (or
    one ensemble generation's many lanes') games into a single kernel
    call.

    ``tables`` is a pre-stacked ``(K, 4**n)`` array in the
    :func:`stack_tables` layout: uint8 rows play deterministically per
    view, float rows are defection probabilities resolved against the mix
    draw.  ``xb`` is an :class:`repro.xp.ArrayBackend`; the round loop runs
    on its namespace (functional updates only, so CuPy/JAX namespaces work
    unchanged) and results return as host float64 arrays.
    """
    from ..xp import get_array_backend

    a_idx, b_idx = _check_pairs(a_idx, b_idx, rounds, tables.shape[0])
    draws = sampled_draws_per_round(tables.dtype != np.uint8, noise)
    if draws == 0:
        raise ConfigurationError(
            "play_pairs_uniforms serves sampled games only (noise > 0 or "
            "mixed tables); pure noiseless pairings are deterministic — "
            "use cycle_payoffs_pairs"
        )
    expected_shape = (rounds, draws, a_idx.shape[0])
    if tuple(uniforms.shape) != expected_shape:
        raise ConfigurationError(
            f"uniforms must have shape (rounds, draws_per_round, n_games) "
            f"= {expected_shape}, got {tuple(uniforms.shape)}"
        )
    if uniforms.dtype != np.float64:
        raise ConfigurationError(
            f"uniforms must be float64 draws, got {uniforms.dtype}: a "
            "narrower block compares differently against noise"
        )
    return _play_rounds(
        xb or get_array_backend(), tables, a_idx, b_idx, rounds, payoff,
        noise, uniforms,
    )


def cycle_payoffs_pairs(
    tables: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    rounds: int,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    compact_sums: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact payoffs for many pure, noiseless pairings at once.

    The batched counterpart of :func:`repro.core.cycle.exact_payoffs`: each
    pairing's joint history is a deterministic walk over the ``4**n`` view
    states (the opponent's view is the bit-swapped mirror), so one round is
    a fixed *round map* ``view -> next view`` with a fixed per-state payoff.
    Instead of simulating round by round, the map is raised to the
    ``rounds``-th power by **exponentiation by squaring** — each doubling
    composes the map with itself and adds the payoff-sum tables — so the
    cost is ``O(n_pairs * 4**n * log2(rounds))`` regardless of cycle
    structure.  A 200-round (or 200-million-round) game costs ~8 doublings
    of tiny arrays.

    ``tables`` is a stacked ``(K, 4**n)`` uint8 array (one row per pure
    strategy); ``a_idx``/``b_idx`` index rows.  Returns ``(pay_a, pay_b)``
    — total payoffs per pairing to each side.

    For **integer-valued** payoff matrices the result is float-exact, hence
    bit-identical to :func:`~repro.core.cycle.exact_payoffs` regardless of
    summation order; non-integer payoffs can differ from the scalar engine
    in the last ulp (different association of the same sums).  This is the
    fill kernel of the deterministic-regime
    :class:`repro.core.engine.FitnessEngine`, which is why that engine
    requires integer payoffs.

    ``compact_sums`` keeps the per-block payoff-sum tables in float32 —
    the kernel is gather-bound, so halving the moved bytes is a measurable
    win for the engines' fill batches.  Callers must guarantee the payoff
    matrix is integer-valued with ``rounds * max|payoff| < 2**24`` (every
    partial sum then remains float32-exact); the returned totals are
    float64 and bit-identical to the default path.
    """
    if tables.dtype != np.uint8:
        raise StrategyError(
            "cycle_payoffs_pairs needs stacked pure (uint8) tables, got "
            f"dtype {tables.dtype}"
        )
    a_idx, b_idx = _check_pairs(a_idx, b_idx, rounds, tables.shape[0])
    n_pairs = a_idx.shape[0]
    if n_pairs == 0:
        return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.float64)
    n_states = tables.shape[1]
    mask = n_states - 1
    mirror = _mirror_row(n_states)
    vec = payoff.vector

    if compact_sums:
        vec = vec.astype(np.float32)

    # One-round tables, per pairing and view state: the move pair played
    # from view v, the successor view, and both sides' round payoffs.  The
    # successor is stored as a *flat* index into the ravelled (L, S)
    # arrays (row offset baked in), so every composition below is a single
    # cheap 1-D fancy gather.
    moves_a = tables[a_idx].astype(np.int64)  # (L, S)
    moves_b = tables[b_idx][:, mirror].astype(np.int64)
    code = 2 * moves_a + moves_b
    offsets = (np.arange(n_pairs, dtype=np.int64) * n_states)[:, None]
    step = ((((np.arange(n_states, dtype=np.int64)[None, :] << 2) | code)
             & mask) + offsets)
    sum_a = vec[code]  # payoff sums over the current 2**k-round block
    sum_b = vec[2 * moves_b + moves_a]

    view = offsets[:, 0].copy()  # all games start all-C (state 0 per row)
    total_a = np.zeros(n_pairs, dtype=np.float64)
    total_b = np.zeros(n_pairs, dtype=np.float64)

    remaining = rounds
    while True:
        if remaining & 1:
            total_a += sum_a.ravel()[view]
            total_b += sum_b.ravel()[view]
            view = step.ravel()[view]
        remaining >>= 1
        if not remaining:
            break
        # Square the block: 2**(k+1) rounds = 2**k rounds, then 2**k more
        # from wherever the walk landed.
        sum_a = sum_a + sum_a.ravel()[step]
        sum_b = sum_b + sum_b.ravel()[step]
        step = step.ravel()[step]
    return total_a, total_b


def payoff_matrix(
    strategies: list[Strategy],
    rounds: int,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """All-ordered-pairs payoff matrix among K strategies.

    ``out[i, j]`` is the total payoff strategy ``i`` earns as the focal
    player of a game against strategy ``j``.  For pure noiseless strategies
    this equals the scalar engine's result exactly and the (i, j)/(j, i)
    entries describe the same deterministic play; for stochastic games every
    ordered pair is an independent game instance (the paper's semantics —
    SSet i's agents and SSet j's agents run separate games).

    Cost is O(K^2 * rounds) vector work; prefer
    :class:`repro.core.payoff_cache.PayoffCache` when strategies repeat
    across generations.
    """
    k = len(strategies)
    rows, cols = np.divmod(np.arange(k * k), k)
    pay, _ = play_pairs(strategies, rows, cols, rounds, payoff, noise, rng)
    return pay.reshape(k, k)
