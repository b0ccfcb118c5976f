"""bp5.append_blocks: the batched vectored write behind ``end_step``.

Each block lands at its returned offset as its Fortran-order bytes,
and :func:`~repro.adios.bp5.block_payload` CRCs those bytes, whatever
the batching and however short the kernel's writes come back.
Zero-length payloads (``b""``) take an offset and write nothing.
"""

import os
import zlib

import numpy as np
import pytest

from repro.adios import bp5


def _blocks():
    rng = np.random.default_rng(7)
    return [
        np.asfortranarray(rng.random((3, 4, 2))),
        b"",
        rng.random((5, 3)),  # C-ordered: block_payload copies it
        np.asfortranarray(rng.integers(0, 100, (2, 2, 2), dtype=np.int32)),
        b"",
        np.asfortranarray(rng.random(7).astype(np.float32)),
    ]


def _append_and_check(root, blocks, prefix=b""):
    bp5.create_dataset(root, 1)
    (root / "data.0").write_bytes(prefix)
    payloads, crcs = zip(*(
        (b, 0) if isinstance(b, bytes) else bp5.block_payload(b)
        for b in blocks
    ))
    offsets = bp5.append_blocks(root, 0, payloads)

    expected = [
        b if isinstance(b, bytes) else b.tobytes(order="F") for b in blocks
    ]
    assert offsets == [
        len(prefix) + sum(len(e) for e in expected[:i])
        for i in range(len(blocks))
    ]
    assert (root / "data.0").read_bytes() == prefix + b"".join(expected)
    assert list(crcs) == [zlib.crc32(e) & 0xFFFFFFFF for e in expected]


def test_offsets_bytes_and_crcs(tmp_path):
    _append_and_check(tmp_path / "a.bp", _blocks())


def test_appends_after_existing_bytes(tmp_path):
    _append_and_check(tmp_path / "a.bp", _blocks(), prefix=b"header--")


def test_only_zero_length_payloads(tmp_path):
    _append_and_check(tmp_path / "a.bp", [b"", b""])


def test_batches_loop_past_iov_max(tmp_path, monkeypatch):
    calls = []
    writev = os.writev

    def counting_writev(fd, buffers):
        calls.append(len(buffers))
        return writev(fd, buffers)

    monkeypatch.setattr(bp5, "_IOV_MAX", 2)
    monkeypatch.setattr(os, "writev", counting_writev)
    _append_and_check(tmp_path / "a.bp", _blocks())
    # four non-empty payloads, at most two per call
    assert calls == [2, 2]


def test_short_writes_reslice_the_pending_buffer(tmp_path, monkeypatch):
    calls = []

    def short_writev(fd, buffers):
        # the kernel may accept fewer bytes than offered, even part of
        # one buffer; write at most 5 bytes per call
        calls.append(1)
        assert len(calls) < 1000, "append_blocks stopped making progress"
        return os.write(fd, bytes(buffers[0][:5]))

    monkeypatch.setattr(os, "writev", short_writev)
    blocks = _blocks()
    _append_and_check(tmp_path / "a.bp", blocks)
    total = sum(b.nbytes for b in blocks if not isinstance(b, bytes))
    assert len(calls) >= total // 5


@pytest.mark.parametrize("iov_max", [1, 3])
def test_short_writes_with_small_batches(tmp_path, monkeypatch, iov_max):
    writev = os.writev
    calls = []

    def short_writev(fd, buffers):
        # accept all but the last 3 bytes of what was offered
        calls.append(1)
        assert len(calls) < 1000, "append_blocks stopped making progress"
        data = b"".join(bytes(b) for b in buffers)
        return writev(fd, [data[: max(1, len(data) - 3)]])

    monkeypatch.setattr(bp5, "_IOV_MAX", iov_max)
    monkeypatch.setattr(os, "writev", short_writev)
    _append_and_check(tmp_path / "a.bp", _blocks())
