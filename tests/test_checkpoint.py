"""Checkpoint bytes: the packed mask codec, golden file hashes for every
method, and rejection of truncated files and of sections that do not fit
the method."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_scenario
from subnet_unlearn.checkpoint import (load_checkpoint, mask_from_bytes, mask_to_bytes,
                                       save_checkpoint)
from subnet_unlearn.engine import METHODS, Hyperparams, run_sequence
from subnet_unlearn.scenario import Request

TINY_HP = Hyperparams(epochs=2, batch_size=6, hidden=(8,), buffer_total=12,
                      n_retrain=5)
SEQUENCE = [Request("learn", 1), Request("learn", 2), Request("unlearn", 1),
            Request("learn", 3)]

# SHA-256 of the checkpoint each method saves after SEQUENCE on
# tiny_scenario(13) at seed 13.  A save -> load -> save comparison passes
# when writer and reader change together; these pins catch any change to
# the file layout, the mask codec or the saved state.
GOLDEN = {
    "subnet": "3257ac84f77e7881c8c36515de04f6783c21af7911ab75a80f120d0a88f257b4",
    "sequential": "450693d08769756d35afe32b79b36570f09d8f7d8fc4704629c3cbfff82e3289",
    "independent": "f5a37e995c56431f33e49805a9da4c35470e7065a81e18ce3bf89a01c40094f2",
    "er": "719bd50f01cb1639a0d527139a0c4cbb7da5ad0e9f586fa8e9a8287db743d921",
    "derpp": "bc6b90ee42bb4d12742f454d73c4a10a215531ff59721e367c73736ef28e36c2",
    "static_sparse": "b1b84b31749a0816414e9d0ec945fa04ec7d374d8e5998bc5228130ad64fed55",
    "dynamic_sparse": "300e3f981bdf0bade092ec566546c3dfceacfdb9ab0128bee58b0d0a0dbf5c41",
}


def checkpoint_bytes(method, path) -> bytes:
    suite = tiny_scenario(13).suite_for_seed(13)
    learner, _ = run_sequence(method, suite, TINY_HP, 13, SEQUENCE)
    save_checkpoint(path, learner)
    return path.read_bytes()


@given(st.lists(st.booleans(), min_size=1, max_size=100))
@settings(max_examples=80, deadline=None)
def test_mask_bytes_round_trip(bits):
    mask = np.array(bits, dtype=bool)
    data = mask_to_bytes(mask)
    assert len(data) == 8 + (mask.size + 7) // 8
    back = mask_from_bytes(data)
    assert back.dtype == bool and back.shape == mask.shape
    np.testing.assert_array_equal(back, mask)


def test_mask_bytes_are_count_then_lsb_first_bits():
    mask = np.zeros(10, dtype=bool)
    mask[[0, 3, 9]] = True
    assert mask_to_bytes(mask) == (10).to_bytes(8, "little") + bytes([0b1001, 0b10])


@pytest.mark.parametrize("method", METHODS)
def test_checkpoint_bytes_match_golden_hash(method, tmp_path):
    data = checkpoint_bytes(method, tmp_path / "state.bin")
    assert hashlib.sha256(data).hexdigest() == GOLDEN[method]


def test_truncated_checkpoint_raises_value_error_at_every_offset(tmp_path):
    data = checkpoint_bytes("subnet", tmp_path / "state.bin")
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(cut)


def test_checkpoint_with_trailing_bytes_is_rejected(tmp_path):
    path = tmp_path / "state.bin"
    path.write_bytes(checkpoint_bytes("subnet", path) + b"\0")
    with pytest.raises(ValueError, match="1 bytes after its sections"):
        load_checkpoint(path)


def relabelled(data: bytes, method: str) -> bytes:
    """The checkpoint with its header's method replaced, header length fixed."""
    (head_len,) = struct.unpack_from("<I", data, 12)
    meta = json.loads(data[16 : 16 + head_len])
    meta["method"] = method
    head = json.dumps(meta, sort_keys=True).encode()
    return data[:12] + struct.pack("<I", len(head)) + head + data[16 + head_len :]


@pytest.mark.parametrize("method", ["sequential", "er", "independent"])
def test_checkpoint_relabelled_to_another_method_is_rejected(method, tmp_path):
    path = tmp_path / "state.bin"
    data = checkpoint_bytes("subnet", path)
    path.write_bytes(relabelled(data, "subnet"))
    assert load_checkpoint(path).method == "subnet"  # the rewrite itself is sound
    path.write_bytes(relabelled(data, method))
    with pytest.raises(ValueError, match=f"do not fit method '{method}'"):
        load_checkpoint(path)
