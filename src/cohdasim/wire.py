"""Canonical byte encoding of knowledge messages.

Used for message size accounting in the simulator and for the scenario
tooling. The encoding is deterministic: fixed-width little-endian
integers, 64-bit IEEE floats, and maps length-prefixed and sorted by
agent id. ``decode_message(encode_message(m)) == m`` holds exactly.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    Candidate,
    Schedule,
    SelectionRecord,
    SystemConfiguration,
    TargetProfile,
    configuration_key,
)

if TYPE_CHECKING:
    from .agent import KnowledgeMessage

__all__ = [
    "encode_message",
    "decode_message",
    "encoded_length",
    "record_length",
    "config_length",
    "carry_config_length",
]

_FORMAT_VERSION = 1


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_floats(values) -> bytes:
    arr = np.asarray(values, dtype="<f8")
    return struct.pack("<I", arr.size) + arr.tobytes()


def _pack_record(rec: SelectionRecord) -> bytes:
    cached = rec.__dict__.get("_wire")
    if cached is None:
        cached = b"".join(
            (
                _pack_str(rec.agent_id),
                struct.pack("<iI", rec.schedule_index, rec.version),
                _pack_floats(rec.schedule.power),
            )
        )
        rec.__dict__["_wire"] = cached
    return cached


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


def record_length(rec: SelectionRecord) -> int:
    """Byte length of one encoded record, cached on the record."""
    n = rec.__dict__.get("_wire_len")
    if n is None:
        n = (4 + len(rec.agent_id.encode("utf-8"))) + 8 + (4 + 8 * len(rec.schedule.power))
        rec.__dict__["_wire_len"] = n
    return n


def config_length(config: SystemConfiguration) -> int:
    """Byte length of an encoded configuration: that of an empty one plus
    ``record_length`` of each record."""
    return 4 + sum(map(record_length, config.values()))


def carry_config_length(obj, n: int) -> None:
    """Attach the known byte length of a message's ``config`` or a
    candidate's ``configuration`` to it. The value is derived, not part of
    the object: ``dataclasses.replace`` drops it, and ``encoded_length``
    computes it from the records when it is missing."""
    obj.__dict__["_config_len"] = n


def _carried_config_length(obj, config: SystemConfiguration) -> int:
    n = obj.__dict__.get("_config_len")
    if n is None:
        n = config_length(config)
        obj.__dict__["_config_len"] = n
    return n


def encoded_length(msg: KnowledgeMessage) -> int:
    """Byte length of the canonical encoding, cached per message object.

    Computed arithmetically (no bytes are built) from the configuration
    lengths carried on the message and on its best candidate; always equals
    ``len(encode_message(msg))``.
    """
    n = msg.__dict__.get("_wire_len")
    if n is None:
        n = (
            1
            + (4 + len(msg.sender.encode("utf-8")))
            + (4 + 8 * len(msg.target.power))
            + _carried_config_length(msg, msg.config)
            + (4 + len(msg.best.creator.encode("utf-8")))
            + 12
            + _carried_config_length(msg.best, msg.best.configuration)
        )
        msg.__dict__["_wire_len"] = n
    return n


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


def _read_config(r: _Reader) -> SystemConfiguration:
    (n,) = r.take("<I")
    config: SystemConfiguration = {}
    for _ in range(n):
        aid = r.take_str()
        idx, version = r.take("<iI")
        schedule = Schedule(r.take_floats())
        config[aid] = SelectionRecord(aid, idx, schedule, version)
    return config


def decode_message(data: bytes) -> KnowledgeMessage:
    from .agent import KnowledgeMessage  # the agent imports this module

    r = _Reader(data)
    (version,) = r.take("<B")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported wire format version {version}")
    sender = r.take_str()
    target = TargetProfile(r.take_floats())
    config = _read_config(r)
    creator = r.take_str()
    fitness, size = r.take("<dI")
    best_config = _read_config(r)
    best = Candidate(best_config, fitness, size, creator, configuration_key(best_config))
    return KnowledgeMessage(sender, target, config, best)
