"""Mid-run run-state snapshots as crash-safe artifact directories.

A run-state snapshot (the v2 format of :mod:`repro.core.runstate`: population
state, evaluator state, RNG stream positions, event/snapshot logs, counters)
is one small directory —

``state.npz``
    every array of the capture, packed: one flat member per distinct dtype
    (all arrays of that dtype concatenated in C order) plus an index member
    — a uint8 array of JSON ``[name, dtype, shape, buffer, offset]``
    entries — compressed with fast (level-1) deflate;
``meta.json``
    the capture's JSON metadata plus the state file's sha256 checksum.

Packing by dtype keeps the container's member count independent of how
many arrays a capture holds: a lane-batched ensemble captures about 18
small arrays per lane, and with one zip member (and ``.npy`` header) per
array the per-member overhead, not the data, would dominate a save.  The
index sits inside ``state.npz``, so the checksum covers it.  A ``state.npz`` with no
index member is a snapshot from before the packed layout (one member per
array); it still loads, member by member.  Object and structured arrays
cannot be packed and are refused at save time, never written.

Crash safety follows :mod:`repro.io.results_writer` exactly: the state file
is written and fsync'd *first* and ``meta.json`` — carrying its checksum —
is laid down last, so its presence marks the snapshot complete.  A crash
mid-save leaves no ``meta.json`` and reads as a clean miss; a torn or
bit-flipped file fails its checksum, raises
:class:`~repro.errors.CheckpointError`, and with ``quarantine=True`` is
renamed ``<name>.corrupt`` first.  The writes double as
:mod:`repro.faults` injection sites (``"io.save_checkpoint"``) for the
torn-write sweeps.

:class:`RunCheckpointer` is the file-backed
:class:`~repro.core.runstate.CheckpointSink`: one directory per resumable
unit (the config hash of :func:`~repro.core.runstate.unit_key`), one
snapshot subdirectory per captured generation, newest-``keep`` retention.
Because every save lands in its *own* generation directory, the previous
snapshot is never overwritten in place — :meth:`RunCheckpointer.load_latest`
walks generations newest-first, quarantines damage, and falls back to the
older snapshot (and finally to a fresh start) instead of failing the run.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

from .. import faults
from ..errors import CheckpointError
from .results_writer import _quarantine

__all__ = ["save_run_checkpoint", "load_run_checkpoint", "RunCheckpointer"]

_META = "meta.json"
_STATE = "state.npz"
_GEN_DIR = re.compile(r"gen-(\d+)")
#: Member holding the packed layout's index; its absence marks the
#: one-member-per-array layout written before packing.
_INDEX = "__index__"


def _pack(arrays: dict[str, np.ndarray]) -> bytes:
    """The ``state.npz`` bytes for ``arrays`` in the packed layout."""
    names: dict[str, str] = {}  # dtype str -> its buffer member
    chunks: dict[str, list[np.ndarray]] = {}
    sizes: dict[str, int] = {}
    index = []
    for name, value in arrays.items():
        array = np.asarray(value)
        if array.dtype.hasobject or array.dtype.kind == "V":
            raise CheckpointError(
                f"cannot checkpoint array {name!r}: dtype {array.dtype} "
                f"is not a plain numeric, bool or string dtype"
            )
        dtype = array.dtype.str
        member = names.setdefault(dtype, f"buf{len(names)}")
        offset = sizes.get(member, 0)
        chunks.setdefault(member, []).append(array.reshape(-1))
        sizes[member] = offset + array.size
        index.append([name, dtype, list(array.shape), member, offset])
    members = {_INDEX: np.frombuffer(
        json.dumps(index, separators=(",", ":")).encode(), np.uint8
    )}
    members.update(
        (member, np.concatenate(parts)) for member, parts in chunks.items()
    )
    buffer = io.BytesIO()
    with zipfile.ZipFile(
        buffer, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1
    ) as archive:
        for member, array in members.items():
            with archive.open(member + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)
    return buffer.getvalue()


def _unpack(raw: bytes) -> dict[str, np.ndarray]:
    """Parse ``state.npz`` bytes of either layout into independent arrays."""
    with np.load(io.BytesIO(raw), allow_pickle=False) as data:
        if _INDEX not in data.files:
            return {name: data[name] for name in data.files}
        index = json.loads(data[_INDEX].tobytes())
        flats = {name: data[name] for name in data.files if name != _INDEX}
    arrays = {}
    for name, dtype, shape, member, offset in index:
        flat = flats[member]
        count = int(np.prod(shape, dtype=np.int64))
        piece = flat[offset:offset + count]
        if flat.dtype != np.dtype(dtype) or offset < 0 or piece.size != count:
            raise ValueError(f"index entry for {name!r} does not fit {member}")
        arrays[name] = piece.reshape(shape).copy()
    return arrays


def save_run_checkpoint(
    directory: str | Path,
    meta: dict[str, Any],
    arrays: dict[str, np.ndarray],
) -> Path:
    """Persist one captured run state; returns the snapshot directory.

    State file first (fsync'd), checksummed ``meta.json`` last — the
    completeness marker (see the module docstring).  An array the packed
    layout cannot hold (object or structured dtype) raises
    :class:`~repro.errors.CheckpointError` before anything is written.
    """
    payload = _pack(arrays)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # A re-save over an existing snapshot (the same boundary reached again
    # after a resume) must pass through an incomplete state, or a crash
    # between the old meta and the new state file could leave a "complete"
    # snapshot with mismatched contents.
    meta_path = directory / _META
    meta_path.unlink(missing_ok=True)

    faults.check("io.save_checkpoint", stage="start")
    state_path = directory / _STATE
    with state_path.open("wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    faults.check("io.save_checkpoint", stage="state")

    record = dict(meta)
    record["checksums"] = {_STATE: hashlib.sha256(payload).hexdigest()}
    with meta_path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    # Corruption points last, after the checksum was taken from the
    # pristine bytes (a tear that lands after the writer finished is
    # exactly what the checksum exists to catch).
    faults.corrupt_file("io.save_checkpoint", state_path, name=_STATE)
    faults.corrupt_file("io.save_checkpoint", meta_path, name=_META)
    return directory


def load_run_checkpoint(
    directory: str | Path, *, quarantine: bool = False
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Load ``(meta, arrays)`` saved by :func:`save_run_checkpoint`.

    A missing ``meta.json`` is an *incomplete* snapshot and raises a plain
    miss; a failed checksum or unparseable file raises corruption, with the
    directory first renamed ``<name>.corrupt`` under ``quarantine=True``.
    The format ``version``/``kind`` fields inside ``meta`` are the
    *drivers'* contract (:mod:`repro.core.runstate`), not verified here.
    """
    directory = Path(directory)
    meta_path = directory / _META
    if not meta_path.exists():
        raise CheckpointError(f"no run-state checkpoint at {directory}")

    def corrupt(detail: str) -> CheckpointError:
        if quarantine:
            moved = _quarantine(directory)
            detail += f" (checkpoint quarantined at {moved})"
        return CheckpointError(
            f"corrupt run-state checkpoint at {directory}: {detail}"
        )

    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise corrupt(f"unreadable {_META}: {err}") from err
    if not isinstance(meta, dict):
        raise corrupt(f"{_META} is not an object")
    checksums = meta.get("checksums")
    if not isinstance(checksums, dict):
        raise corrupt(f"{_META} carries no checksums")
    state_path = directory / _STATE
    if not state_path.exists():
        raise corrupt(f"missing {_STATE}")
    expected = checksums.get(_STATE)
    raw = state_path.read_bytes()
    actual = hashlib.sha256(raw).hexdigest()
    if actual != expected:
        raise corrupt(
            f"{_STATE} sha256 mismatch: expected {expected}, got {actual}"
        )
    try:
        arrays = _unpack(raw)
    except Exception as err:
        raise corrupt(f"unreadable {_STATE}: {err}") from err
    meta = {k: v for k, v in meta.items() if k != "checksums"}
    return meta, arrays


class RunCheckpointer:
    """File-backed checkpoint sink: ``root/unit-<hash>/gen-<G>/``.

    ``keep`` bounds disk per unit: after each save, older generation
    directories beyond the newest ``keep`` are deleted (quarantined
    ``.corrupt`` directories are never touched — they are somebody's
    forensic evidence, and their names no longer parse as generations).
    """

    def __init__(self, root: str | Path, *, keep: int = 2):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.root = Path(root)
        self.keep = keep

    def _unit_dir(self, unit: str) -> Path:
        return self.root / f"unit-{unit[:12]}"

    @staticmethod
    def _generations(unit_dir: Path) -> list[tuple[int, Path]]:
        if not unit_dir.is_dir():
            return []
        found = []
        for path in unit_dir.iterdir():
            match = _GEN_DIR.fullmatch(path.name)
            if match is not None and path.is_dir():
                found.append((int(match.group(1)), path))
        return sorted(found)

    def save(
        self,
        unit: str,
        generation: int,
        meta: dict[str, Any],
        arrays: dict[str, np.ndarray],
    ) -> Path:
        unit_dir = self._unit_dir(unit)
        target = save_run_checkpoint(
            unit_dir / f"gen-{generation:012d}", meta, arrays
        )
        for _gen, stale in self._generations(unit_dir)[: -self.keep]:
            shutil.rmtree(stale, ignore_errors=True)
        return target

    def discard(self, unit: str) -> None:
        """Delete every snapshot of ``unit`` (a finished run needs none)."""
        shutil.rmtree(self._unit_dir(unit), ignore_errors=True)

    def load_latest(
        self, unit: str
    ) -> tuple[dict[str, Any], dict[str, np.ndarray]] | None:
        """Newest loadable snapshot for ``unit``, or ``None``.

        Damaged snapshots are quarantined and the walk falls back to the
        next-newest; an exhausted walk is a clean miss (full replay).
        """
        for _gen, path in reversed(self._generations(self._unit_dir(unit))):
            try:
                return load_run_checkpoint(path, quarantine=True)
            except CheckpointError:
                continue
        return None
