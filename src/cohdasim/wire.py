"""Canonical byte encoding of knowledge messages.

Used for message size accounting in the simulator and for the scenario
tooling. The encoding is deterministic: fixed-width little-endian
integers, 64-bit IEEE floats, and maps length-prefixed and sorted by
agent id. ``decode_message(encode_message(m), fleet) == m`` holds exactly
for a message over ``fleet``.
"""

from __future__ import annotations

import struct
from itertools import compress

import numpy as np

from .agent import KnowledgeMessage
from .core import (
    Candidate,
    Fleet,
    Schedule,
    SelectionRecord,
    StructuralError,
    SystemConfiguration,
    TargetProfile,
)

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


def _pack_record(rec: SelectionRecord) -> bytes:
    return b"".join(
        (
            _pack_str(rec.agent_id),
            struct.pack("<iI", rec.schedule_index, rec.version),
            _pack_floats(rec.schedule.power),
        )
    )


def _pack_config(config: SystemConfiguration) -> bytes:
    parts = [struct.pack("<I", len(config))]
    for aid in sorted(config):
        parts.append(_pack_record(config[aid]))
    return b"".join(parts)


def _pack_candidate(c: Candidate) -> bytes:
    return b"".join(
        (
            _pack_str(c.creator),
            struct.pack("<dI", c.fitness, c.size),
            _pack_config(c.configuration),
        )
    )


def encode_message(msg: KnowledgeMessage) -> bytes:
    return b"".join(
        (
            struct.pack("<B", _FORMAT_VERSION),
            _pack_str(msg.sender),
            _pack_floats(msg.target.power),
            _pack_config(msg.config),
            _pack_candidate(msg.best),
        )
    )


def record_length(agent_id: str, interval_count: int) -> int:
    """Byte length of one encoded record of ``agent_id`` over a horizon of
    ``interval_count`` intervals."""
    return (4 + len(agent_id.encode("utf-8"))) + 8 + (4 + 8 * interval_count)


def config_length(config: SystemConfiguration) -> int:
    """Byte length of an encoded configuration: the fleet's stored length
    when it knows every agent, else from the known agents' record lengths."""
    if -1 not in config.index:
        return config.fleet.config_length
    return EMPTY_CONFIG_LENGTH + sum(compress(config.fleet.record_lengths, config.known()))


def encoded_length(msg: KnowledgeMessage) -> int:
    """Byte length of the canonical encoding, computed from the fleet table
    without building any bytes; always equals ``len(encode_message(msg))``."""
    return (
        1
        + (4 + len(msg.sender.encode("utf-8")))
        + (4 + 8 * len(msg.target.power))
        + config_length(msg.config)
        + (4 + len(msg.best.creator.encode("utf-8")))
        + 12
        + config_length(msg.best.configuration)
    )


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += struct.calcsize(fmt)
        return values

    def take_str(self) -> str:
        (n,) = self.take("<I")
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        return raw.decode("utf-8")

    def take_floats(self) -> tuple[float, ...]:
        (n,) = self.take("<I")
        arr = np.frombuffer(self.data, dtype="<f8", count=n, offset=self.pos)
        self.pos += 8 * n
        return tuple(arr.tolist())


def _read_config(r: _Reader, fleet: Fleet) -> SystemConfiguration:
    (n,) = r.take("<I")
    records = {}
    for _ in range(n):
        aid = r.take_str()
        idx, version = r.take("<iI")
        records[aid] = SelectionRecord(aid, idx, Schedule(r.take_floats()), version)
    return SystemConfiguration.from_records(fleet, records)


def decode_message(data: bytes, fleet: Fleet) -> KnowledgeMessage:
    """The message ``data`` encodes, its configurations over ``fleet``.
    Raises ``StructuralError`` for a record that is not a table entry and
    for a best candidate whose size is not its record count."""
    r = _Reader(data)
    (version,) = r.take("<B")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported wire format version {version}")
    sender = r.take_str()
    target = TargetProfile(r.take_floats())
    config = _read_config(r, fleet)
    creator = r.take_str()
    fitness, size = r.take("<dI")
    best = Candidate(_read_config(r, fleet), fitness, creator)
    if size != best.size:
        raise StructuralError(f"best candidate of size {size} holds {best.size} records")
    return KnowledgeMessage(sender, target, config, best)
