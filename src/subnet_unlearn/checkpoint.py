"""Binary checkpoints for learner state with bit-exact round-trips.

Layout: magic, version, a little-endian u32 JSON length, the JSON metadata
(method, hyperparameters, seed, learned sets, stream counters, section
directory), then the raw sections back to back.  The sections are the
learner's ``sections()``, in its order, each written by its ``CODECS``
entry.  Arrays are stored as little-endian float64 bytes; a mask (bool
array) as its bit count, a little-endian u64, then its bits packed eight to
a byte, LSB first.  A file shorter than its header and section directory
say, or whose sections are not its method's, is rejected.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from . import engine as eng
from . import rehearsal
from .rng import StreamSet
from .scenario import SuiteSpec

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


def _per_task(encode, decode):
    """Codec for a dict from task id to one blob each, ids ascending."""
    return (lambda state: _pack({t: encode(v) for t, v in state.items()}),
            lambda data, state: state.update({t: decode(blob)
                                              for t, blob in _unpack(data).items()}))


# Section name -> (encode the live state, decode bytes into the live state).
CODECS = {
    "params": (_values_bytes, lambda data, values: np.copyto(values, _values_from(data))),
    "masks": _per_task(mask_to_bytes, mask_from_bytes),
    "ledger": _per_task(mask_to_bytes, mask_from_bytes),
    "buffers": (rehearsal.buffers_to_bytes,
                lambda data, state: state.update(rehearsal.buffers_from_bytes(data))),
    "stores": _per_task(_values_bytes, _values_from),
}


def save_checkpoint(path, learner: eng.BaseLearner) -> None:
    sections = [(name, CODECS[name][0](state)) for name, state in learner.sections().items()]
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
    hp = eng.Hyperparams(**{**meta["hyperparams"],
                            "hidden": tuple(meta["hyperparams"]["hidden"])})
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
    live = learner.sections()
    names = [name for name, _ in meta["sections"]]
    if names != list(live):
        raise ValueError(f"checkpoint sections {names} do not fit method "
                         f"{learner.method!r}, which keeps {list(live)}")
    for (name, length), state in zip(meta["sections"], live.values()):
        CODECS[name][1](data[pos : pos + length], state)
        pos += length
    return learner
