"""Binary checkpoints for learner state with bit-exact round-trips.

Layout: magic, version, a little-endian u32 JSON length, the JSON metadata
(method, hyperparameters, seed, learned sets, stream counters, section
directory), then the raw sections back to back.  Arrays are stored as
little-endian float64 bytes; a mask (bool array) as its bit count, a
little-endian u64, then its bits packed eight to a byte, LSB first.  A file
shorter than its header and section directory say is rejected.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from . import engine as eng
from . import rehearsal
from .net import ParamStore
from .rng import StreamSet

MAGIC = b"SUBNETCK"
VERSION = 1


def _values_bytes(values: np.ndarray) -> bytes:
    return values.astype("<f8").tobytes()


def _values_from(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype="<f8").astype(np.float64)


def _pack(blobs: dict[int, bytes]) -> bytes:
    """Count, then per id in ascending order: id, byte length, the blob."""
    out = [struct.pack("<Q", len(blobs))]
    for t in sorted(blobs):
        out.append(struct.pack("<qQ", t, len(blobs[t])))
        out.append(blobs[t])
    return b"".join(out)


def _unpack(data: bytes) -> dict[int, bytes]:
    (count,) = struct.unpack_from("<Q", data, 0)
    pos = 8
    blobs = {}
    for _ in range(count):
        t, n = struct.unpack_from("<qQ", data, pos)
        pos += 16
        blobs[t] = data[pos : pos + n]
        pos += n
    return blobs


def mask_to_bytes(bits: np.ndarray) -> bytes:
    return struct.pack("<Q", bits.size) + np.packbits(bits, bitorder="little").tobytes()


def mask_from_bytes(data: bytes) -> np.ndarray:
    (n,) = struct.unpack_from("<Q", data, 0)
    packed = np.frombuffer(data, dtype=np.uint8, offset=8)
    return np.unpackbits(packed, count=n, bitorder="little").astype(bool)


def _masks_bytes(masks: dict[int, np.ndarray]) -> bytes:
    return _pack({t: mask_to_bytes(m) for t, m in masks.items()})


def _masks_from(data: bytes) -> dict[int, np.ndarray]:
    return {t: mask_from_bytes(blob) for t, blob in _unpack(data).items()}


def save_checkpoint(path, learner: eng.BaseLearner) -> None:
    sections: list[tuple[str, bytes]] = []
    if isinstance(learner, eng.MaskedLearner):
        sections.append(("params", _values_bytes(learner.params.values)))
        sections.append(("masks", _masks_bytes(learner.registry.masks)))
        sections.append(("ledger", _masks_bytes(learner.ledger.trained_by)))
        sections.append(("buffers", rehearsal.buffers_to_bytes(learner.buffers)))
    elif isinstance(learner, eng.IndependentLearner):
        sections.append(("stores", _pack({t: _values_bytes(p.values)
                                          for t, p in learner.stores.items()})))
    else:
        sections.append(("params", _values_bytes(learner.params.values)))
        if isinstance(learner, eng.ReplayLearner):
            sections.append(("buffers", rehearsal.buffers_to_bytes(learner.buffers)))
    hp = asdict(learner.hp)
    hp["hidden"] = list(hp["hidden"])
    meta = {
        "version": VERSION,
        "method": learner.method,
        "hyperparams": hp,
        "master_seed": learner.master_seed,
        "task_count": learner.task_count,
        "input_dim": learner.arch.input_dim,
        "classes_per_task": learner.arch.classes_per_task,
        "omega": list(learner.omega),
        "ever_learned": sorted(learner.ever_learned),
        "counters": {f"{t}:{p}": c for (t, p), c in sorted(learner.streams.counters().items())},
        "retrain_events": [asdict(e) for e in learner.retrain_events],
        "sections": [[name, len(blob)] for name, blob in sections],
    }
    head = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(head)) + head)
        for _, blob in sections:
            fh.write(blob)


def load_checkpoint(path) -> eng.BaseLearner:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise ValueError(f"truncated checkpoint: {len(data)} bytes, the header needs 16")
    if data[:8] != MAGIC:
        raise ValueError("not a checkpoint file")
    version, head_len = struct.unpack_from("<II", data, 8)
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    pos = 16 + head_len
    if len(data) < pos:
        raise ValueError(f"truncated checkpoint: {len(data)} bytes, the header needs {pos}")
    meta = json.loads(data[16:pos])
    body = sum(length for _, length in meta["sections"])
    if len(data) - pos < body:
        raise ValueError(f"truncated checkpoint: {len(data) - pos} bytes after the "
                         f"header, its sections need {body}")
    if len(data) - pos > body:
        raise ValueError(f"checkpoint has {len(data) - pos - body} bytes after its sections")
    sections = {}
    for name, length in meta["sections"]:
        sections[name] = data[pos : pos + length]
        pos += length

    hp = eng.Hyperparams(**{**meta["hyperparams"],
                            "hidden": tuple(meta["hyperparams"]["hidden"])})
    from .scenario import SuiteSpec

    spec = SuiteSpec(meta["input_dim"], meta["classes_per_task"], meta["task_count"])
    learner = eng.make_learner(meta["method"], spec, hp, meta["master_seed"])
    learner.omega = list(meta["omega"])
    learner.ever_learned = set(meta["ever_learned"])
    counters = {}
    for key, c in meta["counters"].items():
        t, p = key.split(":")
        counters[(int(t), p)] = c
    learner.streams = StreamSet(meta["master_seed"], counters)
    learner.retrain_events = [eng.RetrainEvent(**e) for e in meta["retrain_events"]]
    if isinstance(learner, eng.MaskedLearner):
        learner.params.values[:] = _values_from(sections["params"])
        learner.registry.masks = _masks_from(sections["masks"])
        learner.ledger.trained_by = _masks_from(sections["ledger"])
        learner.buffers = rehearsal.buffers_from_bytes(sections["buffers"])
    elif isinstance(learner, eng.IndependentLearner):
        learner.stores = {t: ParamStore(learner.arch, _values_from(blob))
                          for t, blob in _unpack(sections["stores"]).items()}
    else:
        learner.params.values[:] = _values_from(sections["params"])
        if isinstance(learner, eng.ReplayLearner):
            learner.buffers = rehearsal.buffers_from_bytes(sections["buffers"])
    return learner
