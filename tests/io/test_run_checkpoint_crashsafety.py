"""Run-state snapshots torn at every byte must never lie.

The durability half of the mid-run checkpointing contract (ISSUE PR 9):
a snapshot truncated at *any* byte boundary — a crash mid-write, a torn
disk — must either load bit-identically or fail as a typed
:class:`~repro.errors.CheckpointError`, never load wrong state and never
escape as an unrelated exception.  On the resume path that typed failure
must degrade gracefully: quarantine the damage, fall back to the previous
snapshot, and finally to a full replay — with the finished run bit-identical
in every case.  Mirrors ``test_results_writer_crashsafety.py``; all tearing
goes through the :mod:`repro.faults` corrupt machinery.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
import zipfile

import numpy as np
import pytest

from repro import faults
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

#: Small on purpose: the every-byte sweep loads the artifact once per byte.
CONFIG = EvolutionConfig(
    n_ssets=8, generations=80, rounds=8, seed=911,
    record_every=40, checkpoint_every=40,
)

SNAPSHOT_FILES = ("state.npz", "meta.json")


def checkpointed_run(config, root, **kwargs):
    checkpointer = RunCheckpointer(root, **kwargs)
    with checkpoint_scope(checkpointer):
        result = run_serial(config)
    return result, checkpointer


def assert_bit_identical(a, b) -> None:
    assert np.array_equal(
        a.population.strategy_matrix(), b.population.strategy_matrix()
    )
    assert a.events == b.events
    assert a.n_pc_events == b.n_pc_events
    assert a.n_adoptions == b.n_adoptions
    assert a.n_mutations == b.n_mutations
    assert a.generations_run == b.generations_run


def assert_same_snapshot(a, b) -> None:
    meta_a, arrays_a = a
    meta_b, arrays_b = b
    assert meta_a == meta_b
    assert set(arrays_a) == set(arrays_b)
    for name in arrays_a:
        assert np.array_equal(arrays_a[name], arrays_b[name]), name


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One mid-run snapshot directory plus its parsed form and raw bytes."""
    root = tmp_path_factory.mktemp("pristine")
    _, checkpointer = checkpointed_run(CONFIG, root)
    (unit_dir,) = [p for p in root.iterdir() if p.name.startswith("unit-")]
    (snapshot,) = sorted(unit_dir.iterdir())
    assert snapshot.name == f"gen-{40:012d}"
    loaded = load_run_checkpoint(snapshot)
    raw = {name: (snapshot / name).read_bytes() for name in SNAPSHOT_FILES}
    return snapshot, loaded, raw


def truncate_via_harness(path, offset: int) -> None:
    """Tear ``path`` at ``offset`` through the fault-injection machinery."""
    plan = faults.FaultPlan.from_dict({"faults": [
        {"site": "test.tear", "action": "corrupt", "at": offset},
    ]})
    with faults.armed(plan):
        faults.corrupt_file("test.tear", path)
    assert plan.stats()[0]["triggered"] == 1


def sweep_every_truncation(snapshot, loaded, raw, name) -> None:
    """Tear ``snapshot/name`` at every byte; each load must be identical or
    a typed miss."""
    path = snapshot / name
    size = len(raw[name])
    clean_loads = 0
    for offset in range(size + 1):
        truncate_via_harness(path, offset)
        try:
            torn = load_run_checkpoint(snapshot)
        except CheckpointError:
            pass  # a typed, clean miss — the acceptable failure mode
        else:
            assert_same_snapshot(torn, loaded)
            clean_loads += 1
        finally:
            path.write_bytes(raw[name])  # restore for the next offset
    # state.npz is checksummed: only the no-op tear (offset == size) may
    # load.  meta.json tears that leave semantically complete JSON (e.g.
    # a lost trailing newline) may also load — bit-identically.
    if name == "meta.json":
        assert clean_loads >= 1
    else:
        assert clean_loads == 1
    assert_same_snapshot(load_run_checkpoint(snapshot), loaded)


@pytest.mark.parametrize("name", SNAPSHOT_FILES)
def test_every_byte_truncation_loads_identically_or_misses_cleanly(
    name, pristine
):
    sweep_every_truncation(*pristine, name)


#: A 3-lane ensemble group: every lane's arrays share the packed members.
ENSEMBLE_CONFIGS = [
    EvolutionConfig(n_ssets=4, generations=80, rounds=8, seed=920 + r,
                    record_every=40, checkpoint_every=40)
    for r in range(3)
]


@pytest.fixture(scope="module")
def ensemble_pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("ensemble-pristine")
    checkpointer = RunCheckpointer(root)
    with checkpoint_scope(checkpointer):
        run_ensemble(ENSEMBLE_CONFIGS)
    (unit_dir,) = [p for p in root.iterdir() if p.name.startswith("unit-")]
    (snapshot,) = sorted(unit_dir.iterdir())
    loaded = load_run_checkpoint(snapshot)
    assert loaded[0]["kind"] == "ensemble"
    raw = {name: (snapshot / name).read_bytes() for name in SNAPSHOT_FILES}
    return snapshot, loaded, raw


@pytest.mark.parametrize("name", SNAPSHOT_FILES)
def test_every_byte_truncation_of_ensemble_snapshot(name, ensemble_pristine):
    sweep_every_truncation(*ensemble_pristine, name)


def index_member_offset(state_path) -> int:
    """File offset of the middle of the index member's compressed bytes."""
    with zipfile.ZipFile(state_path) as archive:
        info = archive.getinfo("__index__.npy")
    with state_path.open("rb") as fh:
        fh.seek(info.header_offset)
        header = fh.read(30)  # the fixed part of the local file header
    name_len, extra_len = struct.unpack("<HH", header[26:30])
    start = info.header_offset + 30 + name_len + extra_len
    return start + info.compress_size // 2


@pytest.mark.parametrize("restamp", [False, True],
                         ids=["checksum", "parser"])
def test_flipped_index_byte_is_corruption_and_quarantined(
    restamp, ensemble_pristine, tmp_path
):
    """One flipped byte in the index member is caught — by the checksum,
    and by the parser when the checksum is re-stamped over the damage."""
    source, _, _ = ensemble_pristine
    snapshot = tmp_path / source.name
    shutil.copytree(source, snapshot)
    state = snapshot / "state.npz"
    plan = faults.FaultPlan.from_dict({"faults": [
        {"site": "test.flip", "action": "corrupt", "mode": "flip",
         "at": index_member_offset(state)},
    ]})
    with faults.armed(plan):
        faults.corrupt_file("test.flip", state)
    assert plan.stats()[0]["triggered"] == 1
    if restamp:
        meta_path = snapshot / "meta.json"
        record = json.loads(meta_path.read_text())
        record["checksums"]["state.npz"] = hashlib.sha256(
            state.read_bytes()
        ).hexdigest()
        meta_path.write_text(json.dumps(record))
    with pytest.raises(CheckpointError,
                       match="unreadable" if restamp else "sha256 mismatch"):
        load_run_checkpoint(snapshot, quarantine=True)
    assert not snapshot.exists()
    assert snapshot.with_name(snapshot.name + ".corrupt").is_dir()


def test_missing_meta_is_a_clean_miss_not_corruption(pristine):
    snapshot, loaded, raw = pristine
    (snapshot / "meta.json").unlink()
    try:
        with pytest.raises(CheckpointError, match="no run-state checkpoint"):
            load_run_checkpoint(snapshot, quarantine=True)
        # An incomplete snapshot must NOT be quarantined: the crash simply
        # happened before meta, and the next cadence boundary re-saves it.
        assert snapshot.exists()
    finally:
        (snapshot / "meta.json").write_bytes(raw["meta.json"])
    assert_same_snapshot(load_run_checkpoint(snapshot), loaded)


class TestCrashMidSave:
    """Raise faults between the writer's stages: every interruption point
    leaves either no meta (clean miss) or a fully verifiable snapshot."""

    @pytest.mark.parametrize("stage", ["start", "state"])
    def test_interrupted_save_then_resave_recovers(self, stage, pristine,
                                                   tmp_path):
        _, loaded, _ = pristine
        meta, arrays = loaded
        directory = tmp_path / "snap"
        plan = faults.FaultPlan.from_dict({"faults": [
            {"site": "io.save_checkpoint", "match": {"stage": stage}},
        ]})
        with faults.armed(plan):
            with pytest.raises(Exception):
                save_run_checkpoint(directory, meta, arrays)
        # meta.json is written last: the interrupted save never produced
        # one, so the load is a clean miss, not a lie.
        with pytest.raises(CheckpointError, match="no run-state checkpoint"):
            load_run_checkpoint(directory)
        save_run_checkpoint(directory, meta, arrays)
        assert_same_snapshot(load_run_checkpoint(directory), loaded)

    @pytest.mark.parametrize("offset_fraction", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("name", SNAPSHOT_FILES)
    def test_fault_injected_save_tears_are_caught(
        self, name, offset_fraction, pristine, tmp_path
    ):
        """End-to-end: the corrupt spec fires *inside* save_run_checkpoint."""
        _, loaded, raw = pristine
        meta, arrays = loaded
        size = len(raw[name])
        offset = int(size * offset_fraction)
        directory = tmp_path / "torn"
        plan = faults.FaultPlan.from_dict({"faults": [
            {"site": "io.save_checkpoint", "action": "corrupt",
             "at": offset, "match": {"name": name}},
        ]})
        with faults.armed(plan):
            save_run_checkpoint(directory, meta, arrays)
        if offset == size:
            assert_same_snapshot(load_run_checkpoint(directory), loaded)
        else:
            with pytest.raises(CheckpointError):
                load_run_checkpoint(directory)
            save_run_checkpoint(directory, meta, arrays)
            assert_same_snapshot(load_run_checkpoint(directory), loaded)


class TestCheckpointerRetention:
    def test_keep_prunes_oldest_generations(self, tmp_path):
        config = CONFIG.with_updates(generations=160)
        _, checkpointer = checkpointed_run(config, tmp_path, keep=2)
        unit_dir, = [p for p in tmp_path.iterdir()
                     if p.name.startswith("unit-")]
        # Boundaries 40, 80, 120 were saved; keep=2 leaves the newest two.
        assert sorted(p.name for p in unit_dir.iterdir()) == [
            f"gen-{80:012d}", f"gen-{120:012d}",
        ]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep must be >= 1"):
            RunCheckpointer(tmp_path, keep=0)

    def test_discard_removes_every_snapshot_of_the_unit(self, tmp_path):
        _, checkpointer = checkpointed_run(CONFIG, tmp_path)
        unit_dir, = [p for p in tmp_path.iterdir()
                     if p.name.startswith("unit-")]
        unit = unit_dir.name[len("unit-"):]
        assert checkpointer.load_latest(unit) is not None
        checkpointer.discard(unit)
        assert not unit_dir.exists()
        assert checkpointer.load_latest(unit) is None
        checkpointer.discard(unit)  # idempotent on a missing unit

    def test_load_latest_on_unknown_unit_is_none(self, tmp_path):
        assert RunCheckpointer(tmp_path).load_latest("0" * 12) is None


class TestResumeFallback:
    """The driver-facing walk: newest snapshot torn -> quarantine, fall
    back to the previous one, and finally to a full replay — the finished
    run bit-identical throughout."""

    def test_torn_newest_falls_back_to_previous_snapshot(self, tmp_path):
        config = CONFIG.with_updates(generations=120)
        clean, _ = checkpointed_run(config, tmp_path / "clean")
        root = tmp_path / "torn"
        _, checkpointer = checkpointed_run(config, root)
        unit_dir, = [p for p in root.iterdir()
                     if p.name.startswith("unit-")]
        newest = unit_dir / f"gen-{80:012d}"
        state = newest / "state.npz"
        truncate_via_harness(state, state.stat().st_size // 2)

        with checkpoint_scope(checkpointer):
            resumed = run_serial(config)
        assert resumed.resumed_from_generation == 40
        assert_bit_identical(resumed, clean)
        # The damage was quarantined out of the walk (forensics, not
        # deletion) and the resumed run re-wrote a loadable gen-80.
        assert (unit_dir / f"gen-{80:012d}.corrupt").exists()
        assert load_run_checkpoint(newest)

    def test_all_snapshots_torn_degrades_to_full_replay(self, tmp_path):
        clean = run_serial(CONFIG)
        root = tmp_path / "torn"
        _, checkpointer = checkpointed_run(CONFIG, root)
        unit_dir, = [p for p in root.iterdir()
                     if p.name.startswith("unit-")]
        (snapshot,) = sorted(unit_dir.iterdir())
        truncate_via_harness(snapshot / "meta.json", 3)

        with checkpoint_scope(checkpointer):
            resumed = run_serial(CONFIG)
        assert resumed.resumed_from_generation is None  # full replay
        assert_bit_identical(resumed, clean)
        assert (unit_dir / f"gen-{40:012d}.corrupt").exists()

    def test_quarantine_dirs_survive_retention_pruning(self, tmp_path):
        config = CONFIG.with_updates(generations=200)
        _, checkpointer = checkpointed_run(config, tmp_path)
        unit_dir, = [p for p in tmp_path.iterdir()
                     if p.name.startswith("unit-")]
        # Boundaries 40..160 were saved; keep=2 left 120 and 160.
        assert sorted(p.name for p in unit_dir.iterdir()) == [
            f"gen-{120:012d}", f"gen-{160:012d}",
        ]
        newest = unit_dir / f"gen-{160:012d}"
        truncate_via_harness(newest / "meta.json", 0)
        unit = unit_dir.name[len("unit-"):]
        assert checkpointer.load_latest(unit) is not None  # gen-120 fallback
        corrupt = unit_dir / f"gen-{160:012d}.corrupt"
        assert corrupt.exists()
        # The re-run resumes from 120, re-saves 160, prunes back down to
        # keep=2 — and must never collect the forensic .corrupt directory.
        with checkpoint_scope(checkpointer):
            resumed = run_serial(config)
        assert resumed.resumed_from_generation == 120
        assert corrupt.exists()
        assert sorted(p.name for p in unit_dir.iterdir()) == [
            f"gen-{120:012d}", f"gen-{160:012d}", f"gen-{160:012d}.corrupt",
        ]
