"""Concrete packet headers.

A :class:`Packet` is a concrete point in flow space: one value per header
field of a :class:`~repro.flowspace.fields.HeaderLayout`, packed into a
single integer for fast ternary matching.  The simulator annotates packets
with bookkeeping (flow id, ingress/egress, timestamps, encapsulation state)
without touching the header bits.

Every packet draws its id from one global counter when it is built.  The
burst soaks build a whole epoch's packets when the epoch is generated
(:func:`~repro.workloads.streaming.epoch_bursts`), so the ids a burst
consumes do not depend on when it is injected.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Optional

from repro.flowspace.fields import HeaderLayout, OPENFLOW_10_LAYOUT, format_ip

__all__ = ["Packet"]

_packet_ids = itertools.count()


class Packet:
    """A concrete packet: packed header bits plus simulator metadata.

    Parameters
    ----------
    layout:
        The header layout the bits are packed against.
    header_bits:
        The packed header word (use :meth:`from_fields` for named fields).
    flow_id:
        Optional opaque flow identifier used by traffic generators; packets
        of the same flow share it.
    size_bytes:
        Wire size used for serialization-delay accounting.
    """

    __slots__ = (
        "layout",
        "header_bits",
        "flow_id",
        "size_bytes",
        "packet_id",
        "created_at",
        "ingress_switch",
        "encap_destination",
        "hops",
        "via_authority",
        "via_controller",
    )

    def __init__(
        self,
        layout: HeaderLayout,
        header_bits: int,
        flow_id: Optional[int] = None,
        size_bytes: int = 64,
    ):
        self.layout = layout
        self.header_bits = header_bits
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        self.packet_id = next(_packet_ids)
        # Simulator bookkeeping, filled in as the packet travels.
        self.created_at: Optional[float] = None
        self.ingress_switch: Optional[str] = None
        self.encap_destination: Optional[str] = None
        self.hops: int = 0
        self.via_authority: bool = False
        self.via_controller: bool = False

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_fields(
        cls,
        layout: HeaderLayout = OPENFLOW_10_LAYOUT,
        flow_id: Optional[int] = None,
        size_bytes: int = 64,
        **field_values: int,
    ) -> "Packet":
        """Build a packet from named field values (unset fields are zero)."""
        return cls(layout, layout.pack_values(**field_values), flow_id, size_bytes)

    @classmethod
    def random(cls, layout: HeaderLayout, rng: random.Random) -> "Packet":
        """A packet with uniformly random header bits (for property tests)."""
        bits = rng.getrandbits(layout.width) if layout.width else 0
        return cls(layout, bits)

    # -- field access ------------------------------------------------------------
    def field(self, name: str) -> int:
        """Concrete value of field ``name``."""
        spec = self.layout.field(name)
        offset = self.layout.offset(name)
        return (self.header_bits >> offset) & ((1 << spec.width) - 1)

    def fields(self) -> Dict[str, int]:
        """All field values as a dict."""
        return self.layout.unpack(self.header_bits)

    def flow_key(self) -> int:
        """A key identifying the microflow — the full header bits."""
        return self.header_bits

    # -- encapsulation (DIFANE redirects tunnel packets to authority switches) --
    def encapsulate(self, destination: str) -> None:
        """Mark the packet as tunnelled to ``destination`` (an authority switch)."""
        self.encap_destination = destination

    def decapsulate(self) -> None:
        """Strip the tunnel header."""
        self.encap_destination = None

    @property
    def is_encapsulated(self) -> bool:
        """True while the packet is inside a redirect tunnel."""
        return self.encap_destination is not None

    # -- rendering -----------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable summary of interesting header fields."""
        parts = []
        for name, value in self.fields().items():
            if value == 0:
                continue
            if name in ("nw_src", "nw_dst"):
                parts.append(f"{name}={format_ip(value)}")
            else:
                parts.append(f"{name}={value}")
        return "Packet(" + (", ".join(parts) if parts else "zero") + ")"

    def __repr__(self) -> str:
        return f"<Packet #{self.packet_id} flow={self.flow_id} bits={self.header_bits:#x}>"
