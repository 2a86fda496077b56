"""Byte length of knowledge messages.

Used for message size accounting in the simulator. The length is that of
the canonical encoding: a format version byte, then fixed-width
little-endian integers, 64-bit IEEE floats, and maps length-prefixed and
sorted by agent id, each record an agent's id, schedule index, version and
table row. It is computed from the fleet table without building any bytes.
The reference encoder and decoder of the format are test code
(``tests/wire_reference.py``).
"""

from __future__ import annotations

from itertools import compress

__all__ = [
    "encoded_length",
    "record_length",
    "EMPTY_CONFIG_LENGTH",
    "config_length",
    "MAX_RECORDS",
    "MAX_SCHEDULES",
]

EMPTY_CONFIG_LENGTH = 4  # a configuration's record count
# The most records a configuration can hold (its count is packed as "<I")
# and the most schedules an agent can have (an index is packed as "<i").
MAX_RECORDS = 2**32 - 1
MAX_SCHEDULES = 2**31 - 1


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
    """Byte length of the canonical encoding of ``msg``: format version,
    sender, target and believed configuration, then the best candidate's
    creator, fitness, size and configuration."""
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
