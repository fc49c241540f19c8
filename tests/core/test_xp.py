"""Array-namespace seam (:mod:`repro.xp`): resolution, fallback, capabilities.

The seam's contract: ``"numpy"`` resolves to the identity backend, a
missing accelerator stack falls back to NumPy *with a note* (never an
ImportError at resolution time), a typo'd name fails loudly, and
``segment_reduce`` is bit-identical to the engines' historical
``np.add.reduceat`` on both code paths for the integer-exact payoffs it
serves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.xp import KNOWN_BACKENDS, ArrayBackend, get_array_backend


class TestResolution:
    def test_default_is_numpy(self):
        xb = get_array_backend()
        assert xb.requested == "numpy"
        assert xb.resolved == "numpy"
        assert xb.note is None
        assert xb.is_numpy
        assert xb.xp is np
        assert xb.describe() == "numpy"

    def test_none_means_numpy(self):
        assert get_array_backend(None) is get_array_backend("numpy")

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown array backend"):
            get_array_backend("torch")

    def test_resolution_is_cached_per_name(self):
        assert get_array_backend("numpy") is get_array_backend("numpy")

    @pytest.mark.parametrize(
        "name", [n for n in KNOWN_BACKENDS if n != "numpy"]
    )
    def test_accelerator_fallback_is_clean_and_annotated(self, name):
        # When the stack is importable the backend resolves to it; when it
        # is not, resolution lands on numpy with a note naming the missing
        # stack.  Either way, no exception escapes.
        xb = get_array_backend(name)
        assert xb.requested == name
        if xb.resolved == name:
            assert xb.note is None
            assert xb.describe() == name
        else:
            assert xb.resolved == "numpy"
            assert xb.is_numpy
            assert name in xb.note
            assert "unavailable" in xb.note
            assert xb.describe().startswith("numpy (")


class TestTransfers:
    def test_numpy_transfers_are_identity(self):
        xb = get_array_backend()
        arr = np.arange(5)
        assert xb.to_device(arr) is arr
        assert xb.to_host(arr) is arr

    def test_zeros(self):
        z = get_array_backend().zeros((2, 3), np.float32)
        assert z.shape == (2, 3)
        assert z.dtype == np.float32
        assert not z.any()


def _segments():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 5, size=23).astype(np.float64)
    # CSR-style offsets; the engines never build empty segments.
    seg = np.array([0, 4, 9, 15, 23], dtype=np.int64)
    return values, seg


class TestSegmentReduce:
    def test_numpy_path_is_reduceat(self):
        values, seg = _segments()
        got = get_array_backend().segment_reduce(values, seg)
        assert np.array_equal(got, np.add.reduceat(values, seg[:-1]))

    def test_cumsum_fallback_matches_reduceat_on_integer_data(self):
        # A backend whose ``resolved`` is not "numpy" but whose namespace
        # module is NumPy drives the cumsum-difference branch with host
        # arrays — the non-reduceat path accelerator namespaces take.
        fake = ArrayBackend("cupy", "fake", np, None)
        values, seg = _segments()
        got = fake.segment_reduce(values, seg)
        assert np.array_equal(got, np.add.reduceat(values, seg[:-1]))

    def test_single_segment(self):
        values, _ = _segments()
        seg = np.array([0, values.shape[0]], dtype=np.int64)
        for xb in (get_array_backend(), ArrayBackend("jax", "fake", np, None)):
            assert np.array_equal(
                xb.segment_reduce(values, seg), np.array([values.sum()])
            )


class TestSampledKernelOnEveryBackend:
    """The sampled game loop uses functional updates only, so it runs
    unchanged on every namespace the seam resolves — and must return the
    NumPy bits there.  ``"transfers"`` is a NumPy namespace behind a
    non-identity backend, so the device/host transfer path runs even
    where no accelerator stack is installed."""

    @pytest.mark.parametrize("name", [*KNOWN_BACKENDS, "transfers"])
    @pytest.mark.parametrize("mixed,noise", [(False, 0.05), (True, 0.0),
                                             (True, 0.05)])
    def test_bytes_equal_numpy(self, name, mixed, noise):
        from repro.core.payoff import PayoffMatrix
        from repro.core.strategy import random_mixed, random_pure
        from repro.core.vectorgame import (
            play_pairs_uniforms,
            sampled_draws_per_round,
            stack_tables,
        )

        rng = np.random.default_rng(11)
        make = random_mixed if mixed else random_pure
        tables, _, _ = stack_tables([make(rng, 2) for _ in range(5)])
        a_idx = rng.integers(0, 5, size=40)
        b_idx = rng.integers(0, 5, size=40)
        rounds = 17
        uniforms = rng.random(
            (rounds, sampled_draws_per_round(mixed, noise), 40)
        )
        payoff = PayoffMatrix(3.1, 0.3, 5.7, 1.3)
        args = (tables, a_idx, b_idx, rounds, payoff, noise, uniforms)
        ref_a, ref_b = play_pairs_uniforms(*args)
        xb = (
            ArrayBackend("jax", "fake", np, None)
            if name == "transfers"
            else get_array_backend(name)
        )
        got_a, got_b = play_pairs_uniforms(*args, xb=xb)
        assert isinstance(got_a, np.ndarray)
        assert got_a.tobytes() == ref_a.tobytes()
        assert got_b.tobytes() == ref_b.tobytes()
