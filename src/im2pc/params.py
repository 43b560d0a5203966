"""Named trainable parameters and the flat binary checkpoint format.

A Parameter is a leaf Tensor that carries its dotted name: layers compute
with it directly, and backward() leaves its gradient in `.grad`.

Checkpoint layout (little-endian):
    magic   4 bytes  b"IPCK"
    version 1 byte   (currently 1)
    count   u32      number of records
    record: name_len u16, name utf-8, ndim u8, dims u32 * ndim,
            values float64 * prod(dims)
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .autodiff import Tensor
from .errors import MalformedFile

MAGIC = b"IPCK"
VERSION = 1


class Parameter(Tensor):
    """A trainable leaf tensor with a unique dotted name."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name


class Module:
    """Composable holder of parameters and submodules. An attribute whose
    name starts with an underscore is a cache, not part of the tree."""

    def named_parameters(self):
        out = []
        seen = set()
        for name, attr in vars(self).items():
            if name.startswith("_"):
                continue
            items = attr if isinstance(attr, (list, tuple)) else [attr]
            for item in items:
                if isinstance(item, Parameter):
                    out.append(item)
                elif isinstance(item, Module):
                    out.extend(item.named_parameters())
        for p in out:
            if p.name in seen:
                raise ValueError(f"duplicate parameter name: {p.name}")
            seen.add(p.name)
        return out

    def named_buffers(self):
        """(name, owner, attr) triples for non-trainable state arrays."""
        out = []
        for name, attr in vars(self).items():
            if name.startswith("_"):
                continue
            items = attr if isinstance(attr, (list, tuple)) else [attr]
            for item in items:
                if isinstance(item, Module):
                    out.extend(item.named_buffers())
        return out


def _write_entry(f, name: str, arr: np.ndarray):
    enc = name.encode("utf-8")
    f.write(struct.pack("<H", len(enc)))
    f.write(enc)
    f.write(bytes([arr.ndim]))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_checkpoint(path, params: list[Parameter], buffers=()):
    """Serialize parameters plus (name, owner, attr) buffer triples."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(bytes([VERSION]))
        f.write(struct.pack("<I", len(params) + len(buffers)))
        for p in params:
            _write_entry(f, p.name, p.data)
        for name, owner, attr in buffers:
            _write_entry(f, name, np.asarray(getattr(owner, attr)))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise MalformedFile("bad checkpoint magic")
    if len(raw) < 9:
        raise MalformedFile(f"truncated checkpoint header ({len(raw)} bytes)")
    if raw[4] != VERSION:
        raise MalformedFile(f"unsupported checkpoint version {raw[4]}")
    (count,) = struct.unpack_from("<I", raw, 5)
    off = 9
    out = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off : off + name_len].decode("utf-8")
            off += name_len
            ndim = raw[off]
            off += 1
            dims = struct.unpack_from(f"<{ndim}I", raw, off)
            off += 4 * ndim
            n = math.prod(dims)
            values = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(dims)
            off += 8 * n
            out[name] = values.astype(np.float64)
    except (struct.error, ValueError, IndexError) as e:
        raise MalformedFile(f"truncated checkpoint: {e}") from e
    if off != len(raw):
        raise MalformedFile("trailing bytes in checkpoint")
    for name, values in out.items():
        if not np.isfinite(values).all():  # train() never saves such a record
            raise MalformedFile(f"non-finite value in checkpoint record {name!r}")
    return out


def restore(params: list[Parameter], state: dict[str, np.ndarray]):
    for p in params:
        if p.name not in state:
            raise MalformedFile(f"checkpoint missing parameter {p.name}")
        if state[p.name].shape != p.data.shape:
            raise MalformedFile(f"shape mismatch for {p.name}")
        p.data = state[p.name].copy()


def restore_buffers(buffers, state: dict[str, np.ndarray]):
    """Set (name, owner, attr) buffers from a loaded checkpoint state."""
    for name, owner, attr in buffers:
        if name not in state:
            raise MalformedFile(f"checkpoint missing buffer {name}")
        if state[name].shape != np.asarray(getattr(owner, attr)).shape:
            raise MalformedFile(f"shape mismatch for {name}")
        if attr == "running_var" and (state[name] < 0).any():  # train() never saves one
            raise MalformedFile(f"negative variance in checkpoint record {name!r}")
        setattr(owner, attr, state[name].copy())
