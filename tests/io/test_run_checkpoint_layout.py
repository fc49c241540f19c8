"""The packed ``state.npz`` layout of run-state snapshots.

A snapshot's arrays are packed into one flat member per dtype plus a JSON
index member (:mod:`repro.io.run_checkpoint`).  Pinned here: the member set
does not grow with the number of arrays (lanes), every dtype and memory
layout a capture can hand over round-trips into independent writable
arrays, unpackable arrays fail at save time rather than at load time, and
snapshots written in the older one-member-per-array layout still load and
resume bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import EvolutionConfig
from repro.core.evolution import run_serial
from repro.core.runstate import checkpoint_scope
from repro.ensemble.driver import run_ensemble
from repro.errors import CheckpointError
from repro.io.run_checkpoint import (
    RunCheckpointer,
    load_run_checkpoint,
    save_run_checkpoint,
)


def write_legacy_snapshot(directory: Path, meta: dict, arrays: dict) -> None:
    """Write a snapshot in the layout used before packing: one compressed
    npz member per array, plus a checksummed ``meta.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    state = directory / "state.npz"
    with state.open("wb") as fh:
        np.savez_compressed(fh, **arrays)
    record = dict(meta)
    record["checksums"] = {
        "state.npz": hashlib.sha256(state.read_bytes()).hexdigest()
    }
    (directory / "meta.json").write_text(
        json.dumps(record, sort_keys=True) + "\n", encoding="utf-8"
    )


def member_names(snapshot: Path) -> set[str]:
    with zipfile.ZipFile(snapshot / "state.npz") as archive:
        return set(archive.namelist())


def checkpointed(root: Path, run, configs):
    checkpointer = RunCheckpointer(root)
    with checkpoint_scope(checkpointer):
        results = run(configs)
    (unit_dir,) = [p for p in root.iterdir() if p.name.startswith("unit-")]
    return results, checkpointer, unit_dir


def ensemble_configs(lanes: int, **kwargs) -> list[EvolutionConfig]:
    base = dict(n_ssets=4, generations=80, rounds=8, record_every=40,
                checkpoint_every=40)
    base.update(kwargs)
    return [EvolutionConfig(seed=700 + r, **base) for r in range(lanes)]


def assert_same_results(a, b) -> None:
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(
            ra.population.strategy_matrix(), rb.population.strategy_matrix()
        )
        assert ra.events == rb.events
        for field in ("n_pc_events", "n_adoptions", "n_mutations",
                      "generations_run"):
            assert getattr(ra, field) == getattr(rb, field), field


def test_member_set_does_not_grow_with_lanes(tmp_path):
    """One member per dtype, not per array: a 16-lane snapshot holds the
    same members as a 2-lane one."""
    names = {}
    counts = {}
    for lanes in (2, 16):
        _, _, unit_dir = checkpointed(
            tmp_path / f"lanes{lanes}", run_ensemble, ensemble_configs(lanes)
        )
        (snapshot,) = sorted(unit_dir.iterdir())
        names[lanes] = member_names(snapshot)
        _, arrays = load_run_checkpoint(snapshot)
        counts[lanes] = (len(arrays), len({a.dtype for a in arrays.values()}))
    assert names[2] == names[16]
    arrays_16, dtypes_16 = counts[16]
    assert len(names[16]) == dtypes_16 + 1  # one buffer per dtype + index
    assert arrays_16 > counts[2][0] > len(names[2])


@pytest.mark.parametrize("bad", [
    np.array([{"a": 1}, None], dtype=object),
    np.zeros(3, dtype=[("x", "<i4"), ("y", "<f8")]),
    np.zeros(2, dtype="V8"),
], ids=["object", "structured", "void"])
def test_unpackable_arrays_fail_at_save_not_at_load(bad, tmp_path):
    directory = tmp_path / "snap"
    arrays = {"fine": np.arange(4), "lane3_payload": bad}
    with pytest.raises(CheckpointError, match="'lane3_payload'"):
        save_run_checkpoint(directory, {"kind": "serial"}, arrays)
    assert not (directory / "meta.json").exists()
    with pytest.raises(CheckpointError, match="no run-state checkpoint"):
        load_run_checkpoint(directory)


class TestOldLayoutSnapshots:
    """Snapshots in the one-member-per-array layout load to the same arrays
    and resume bit-identically."""

    @staticmethod
    def rewrite_as_legacy(unit_dir: Path, generation: int):
        snapshot = unit_dir / f"gen-{generation:012d}"
        meta, arrays = load_run_checkpoint(snapshot)
        for path in unit_dir.iterdir():  # the resume must use this one
            shutil.rmtree(path)
        write_legacy_snapshot(snapshot, meta, arrays)
        assert "__index__.npy" not in member_names(snapshot)
        legacy_meta, legacy_arrays = load_run_checkpoint(snapshot)
        assert legacy_meta == meta
        assert set(legacy_arrays) == set(arrays)
        for name, array in arrays.items():
            assert legacy_arrays[name].dtype == array.dtype, name
            assert np.array_equal(legacy_arrays[name], array), name

    def test_serial_snapshot(self, tmp_path):
        config = EvolutionConfig(
            n_ssets=8, generations=120, rounds=8, seed=911,
            record_every=40, checkpoint_every=40, record_events=True,
        )
        clean = run_serial(config)
        _, checkpointer, unit_dir = checkpointed(tmp_path, run_serial, config)
        self.rewrite_as_legacy(unit_dir, 40)
        with checkpoint_scope(checkpointer):
            resumed = run_serial(config)
        assert resumed.resumed_from_generation == 40
        assert_same_results([clean], [resumed])

    def test_three_lane_ensemble_snapshot(self, tmp_path):
        configs = ensemble_configs(3, generations=120, record_events=True)
        clean = run_ensemble(configs)
        _, checkpointer, unit_dir = checkpointed(
            tmp_path, run_ensemble, configs
        )
        self.rewrite_as_legacy(unit_dir, 40)
        with checkpoint_scope(checkpointer):
            resumed = run_ensemble(configs)
        assert [r.resumed_from_generation for r in resumed] == [40] * 3
        assert_same_results(clean, resumed)


DTYPES = [np.dtype(d) for d in (
    "<i8", "<i4", "<u1", "<f8", "<f4", "?", "<U3", "<U7",
)]


@st.composite
def captured_arrays(draw):
    """An array of any packable dtype, in any memory layout a capture
    could hand over: C, Fortran, a strided view, or a transpose."""
    dtype = draw(st.sampled_from(DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=4))
    layout = draw(st.sampled_from(["c", "fortran", "strided", "transposed"]))
    if layout == "strided":
        base = draw(hnp.arrays(dtype, (2 * shape[0],) + shape[1:]
                               if shape else (3,)))
        return base[::2] if shape else base[1, ...]
    array = draw(hnp.arrays(dtype, shape))
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "transposed":
        return array.T
    return array


@settings(max_examples=60, deadline=None)
@given(st.lists(captured_arrays(), min_size=1, max_size=8))
def test_packed_round_trip(arrays):
    saved = {f"a{i}": array for i, array in enumerate(arrays)}
    expected = {name: np.array(a) for name, a in saved.items()}
    with tempfile.TemporaryDirectory() as tmp:
        save_run_checkpoint(Path(tmp) / "snap", {"kind": "test"}, saved)
        meta, loaded = load_run_checkpoint(Path(tmp) / "snap")
    assert meta == {"kind": "test"}
    assert list(loaded) == list(saved)
    for name, array in loaded.items():
        assert array.dtype == expected[name].dtype, name
        assert array.shape == expected[name].shape, name
        assert array.tobytes() == expected[name].tobytes(), name
        assert array.flags.writeable and array.flags.c_contiguous, name
        assert array.flags.owndata, name
    values = list(loaded.values())
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert not np.shares_memory(a, b)
