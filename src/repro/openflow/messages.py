"""OpenFlow 1.0 style control messages.

Only the subset the runs exchange: the NOX baseline's punts
(:class:`PacketIn`), microflow installs (:class:`FlowMod`) and
re-injections (:class:`PacketOut`); the DIFANE control plane's liveness
beacons (:class:`Heartbeat`), and its controller shards' fragment moves
(:class:`FlowMod` add/delete), leases and ownership handshakes.  Messages
are plain dataclasses; the channel layer handles latency and the receiver
handles dispatch, so these stay pure data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.flowspace.packet import Packet
from repro.flowspace.rule import Rule

__all__ = [
    "Message",
    "PacketIn",
    "PacketOut",
    "FlowModCommand",
    "FlowMod",
    "Heartbeat",
    "LeaseRenew",
    "OwnershipTransfer",
    "OwnershipAck",
]

_transaction_ids = itertools.count()


@dataclass
class Message:
    """Base control message; every message carries a transaction id."""

    xid: int = field(default_factory=lambda: next(_transaction_ids), init=False)


@dataclass
class PacketIn(Message):
    """Switch → controller: a packet missed every rule (Ethane/NOX path)."""

    switch: str
    packet: Packet


@dataclass
class PacketOut(Message):
    """Controller → switch: re-inject a (previously punted) packet."""

    switch: str
    packet: Packet
    actions: object  # ActionList


class FlowModCommand(Enum):
    """FlowMod verbs (the OF 1.0 subset we exercise)."""

    ADD = "add"
    DELETE = "delete"


@dataclass
class FlowMod(Message):
    """Controller → switch: install or delete a rule."""

    switch: str
    command: FlowModCommand
    rule: Optional[Rule] = None


@dataclass
class Heartbeat(Message):
    """Switch → controller: liveness beacon (echo-request analogue).

    Sent fire-and-forget — a lost heartbeat is exactly the signal the
    failure detector integrates over, so it must not be retransmitted.
    """

    switch: str
    beat: int = 0
    sent_at: float = 0.0


@dataclass
class LeaseRenew(Message):
    """Controller-shard leader → follower: leadership lease broadcast.

    Carries the leader's identity and monotonically increasing term; a
    follower whose lease expires (no renewal for the timeout) starts a
    deterministic election.  Sent reliably — the ARQ layer makes the
    lease tolerate channel drop/delay faults.
    """

    leader: str
    term: int = 0
    sent_at: float = 0.0


@dataclass
class OwnershipTransfer(Message):
    """Shard leader → shard: adopt these partitions (takeover handshake).

    The leader re-derives ownership of a dead shard's partitions over the
    live membership and hands each new owner its set; the transfer is
    complete only when the matching :class:`OwnershipAck` arrives, so the
    handshake inherits the channel's seq/ack reliability semantics.
    """

    shard: str
    partition_ids: tuple = ()
    term: int = 0


@dataclass
class OwnershipAck(Message):
    """Shard → leader: the partitions of an OwnershipTransfer are adopted."""

    shard: str
    partition_ids: tuple = ()
    term: int = 0
