"""Canonical byte encoding of knowledge messages.

Used for message size accounting in the simulator and for the scenario
tooling. The encoding is deterministic: fixed-width little-endian
integers, 64-bit IEEE floats, and maps length-prefixed and sorted by
agent id, each record packed from the fleet table. For a message ``m``
over ``fleet``, ``decode_message(encode_message(m), fleet) == m``; the
decoder refuses every input that is not such an encoding.
"""

from __future__ import annotations

import struct
from itertools import compress
from math import isfinite

import numpy as np

from .agent import KnowledgeMessage
from .core import Candidate, Fleet, StructuralError, SystemConfiguration, TargetProfile

__all__ = [
    "encode_message",
    "decode_message",
    "encoded_length",
    "record_length",
    "EMPTY_CONFIG_LENGTH",
    "config_length",
    "MAX_RECORDS",
    "MAX_SCHEDULES",
]

_FORMAT_VERSION = 1
EMPTY_CONFIG_LENGTH = 4  # a configuration's record count
# The most records a configuration can hold (its count is packed as "<I")
# and the most schedules an agent can have (an index is packed as "<i").
MAX_RECORDS = 2**32 - 1
MAX_SCHEDULES = 2**31 - 1


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_floats(values) -> bytes:
    arr = np.asarray(values, dtype="<f8")
    return struct.pack("<I", arr.size) + arr.tobytes()


def _pack_config(config: SystemConfiguration) -> bytes:
    """The record count, then a record per known agent in fleet order, which
    is sorted-id order: id, schedule index, version and the table row."""
    fleet = config.fleet
    parts = [struct.pack("<I", len(config))]
    for aid, table, idx, version in zip(fleet.ids, fleet.power, config.index, config.version):
        if idx >= 0:
            parts += (_pack_str(aid), struct.pack("<iI", idx, version), _pack_floats(table[idx]))
    return b"".join(parts)


def encode_message(msg: KnowledgeMessage) -> bytes:
    """Format version, sender, target and believed configuration, then the
    best candidate: creator, fitness, size and configuration."""
    best = msg.best
    return b"".join((
        struct.pack("<B", _FORMAT_VERSION), _pack_str(msg.sender), _pack_floats(msg.target.power),
        _pack_config(msg.config), _pack_str(best.creator),
        struct.pack("<dI", best.fitness, best.size), _pack_config(best.configuration),
    ))


def record_length(agent_id: str, interval_count: int) -> int:
    """Byte length of one encoded record of ``agent_id`` over a horizon of
    ``interval_count`` intervals."""
    return (4 + len(agent_id.encode("utf-8"))) + 8 + (4 + 8 * interval_count)


def config_length(config: SystemConfiguration) -> int:
    """Byte length of an encoded configuration: the fleet's stored length
    when its size says it knows every agent, else from the known agents'
    record lengths."""
    if config.size == len(config.fleet):
        return config.fleet.config_length
    return EMPTY_CONFIG_LENGTH + sum(compress(config.fleet.record_lengths, config.known()))


def encoded_length(msg: KnowledgeMessage) -> int:
    """Byte length of the canonical encoding, computed from the fleet table
    without building any bytes; always equals ``len(encode_message(msg))``."""
    best = msg.best
    return (
        1
        + (4 + len(msg.sender.encode("utf-8")))
        + (4 + 8 * len(msg.target.power))
        + config_length(msg.config)
        + (4 + len(best.creator.encode("utf-8")))
        + 12
        + config_length(best.configuration)
    )


class _Reader:
    """Reads fields in order, refusing a truncated field or a non-UTF-8 string."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take_bytes(self, n: int) -> bytes:
        start, self.pos = self.pos, self.pos + n
        if self.pos > len(self.data):
            raise StructuralError(f"message of {len(self.data)} bytes ends inside a field")
        return self.data[start : self.pos]

    def take(self, fmt: str):
        return struct.unpack(fmt, self.take_bytes(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (n,) = self.take("<I")
        try:
            return self.take_bytes(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StructuralError(f"string is not UTF-8: {exc}") from None

    def take_floats(self, n: int) -> tuple[float, ...]:
        if self.take("<I") != (n,):
            raise StructuralError(f"a float field does not hold {n} values")
        return tuple(np.frombuffer(self.take_bytes(8 * n), dtype="<f8").tolist())


def _read_config(r: _Reader, fleet: Fleet) -> SystemConfiguration:
    """A configuration whose records name agents of ``fleet`` in fleet order,
    each with a schedule index in range and the bytes of that table row."""
    (n,) = r.take("<I")
    index = [-1] * len(fleet)
    version = [-1] * len(fleet)
    first = 0  # the fleet place the next record may name, or a later one
    for _ in range(n):
        aid = r.take_str()
        i = fleet.position.get(aid, -1)
        if i < first:
            raise StructuralError(f"record for {aid!r} is not a later agent of the fleet")
        idx, ver = r.take("<iI")
        if not 0 <= idx < len(fleet.power[i]):
            raise StructuralError(f"schedule index {idx} of {aid!r} is out of range")
        row = _pack_floats(fleet.power[i][idx])
        if r.take_bytes(len(row)) != row:
            raise StructuralError(f"schedule of {aid!r} is not its table entry")
        index[i], version[i] = idx, ver
        first = i + 1
    return SystemConfiguration(fleet, index, version)


def decode_message(data: bytes, fleet: Fleet) -> KnowledgeMessage:
    """The message ``data`` encodes, its configurations over ``fleet``.
    Raises ``StructuralError`` for an input that is not the canonical
    encoding of such a message: truncated or overlong, of another format
    version, with a string that is not UTF-8, a target off the horizon, a
    record out of order or off the table, a non-finite best fitness or a
    best size that is not its record count."""
    r = _Reader(data)
    (version,) = r.take("<B")
    if version != _FORMAT_VERSION:
        raise StructuralError(f"unsupported wire format version {version}")
    sender = r.take_str()
    target = TargetProfile(r.take_floats(fleet.horizon.interval_count))
    config = _read_config(r, fleet)
    creator = r.take_str()
    fitness, size = r.take("<dI")
    if not isfinite(fitness):
        raise StructuralError(f"best fitness {fitness!r} is not finite")
    best = Candidate(_read_config(r, fleet), fitness, creator)
    if size != best.size:
        raise StructuralError(f"best candidate of size {size} holds {best.size} records")
    if r.pos != len(data):
        raise StructuralError(f"{len(data) - r.pos} bytes follow the message")
    return KnowledgeMessage(sender, target, config, best)
