"""Same-instant packet bursts, built from per-field columns.

The burst-driven soaks (M1, E8C, E9Q) generate their traffic one burst at
a time: many packets entering one ingress switch at one instant.  A
:class:`PacketBatch` is such a burst as the generators build it — one
value column per header field plus the flow ids — and
:meth:`PacketBatch.packets` turns it into the :class:`Packet` objects the
network moves.  :meth:`SimNetwork.inject_batch_at_switch` hands those to
the switch's ``handle_packet`` one by one, in packet order.

Packet ids are reserved from the global counter when the batch is built,
so the ids a burst consumes do not depend on when it is injected.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet, reserve_packet_ids

__all__ = ["PacketBatch", "set_columnar"]


def set_columnar(enabled: bool) -> None:
    """Accept and ignore the retired columnar-mode switch.

    There is one packet path (DESIGN.md, "One packet path"), so this has
    no effect.  It exists only because the benchmark harness still calls
    ``set_columnar(workload.columnar)`` for every workload
    (``bench/unit.py``); it goes together with that call and the
    ``m1_columnar`` workload (ROADMAP item 7).
    """
    del enabled


class PacketBatch:
    """A same-instant burst of packets at one ingress switch.

    Attributes
    ----------
    header_bits:
        The packed header word of every packet, in packet order.
    flow_ids:
        Per-packet flow ids (``None`` allowed, matching ``Packet.flow_id``);
        M1's heavy-hitter sketch reads them when the burst is scheduled.
    packet_ids:
        Ids drawn from the global packet counter at construction.
    created_at / ingress_switch:
        Stamped on every packet of the burst at injection.
    """

    __slots__ = (
        "layout", "header_bits", "flow_ids", "packet_ids", "size_bytes",
        "created_at", "ingress_switch",
    )

    def __init__(
        self,
        layout: HeaderLayout,
        header_bits: List[int],
        flow_ids: List[Optional[int]],
        size_bytes: int = 64,
    ):
        self.layout = layout
        self.header_bits = header_bits
        self.flow_ids = flow_ids
        self.packet_ids = reserve_packet_ids(len(header_bits))
        self.size_bytes = size_bytes
        self.created_at: Optional[float] = None
        self.ingress_switch: Optional[str] = None

    @classmethod
    def from_fields(
        cls,
        layout: HeaderLayout,
        count: int,
        flow_ids: Optional[Sequence[int]] = None,
        size_bytes: int = 64,
        **field_columns,
    ) -> "PacketBatch":
        """Build a batch from per-field value columns.

        Each keyword is a field name mapped to a scalar (broadcast) or a
        length-``count`` sequence; unset fields are zero, like
        :meth:`Packet.from_fields`.  Packet ids are reserved from the
        global counter in batch order.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        words = [0] * count
        for name, values in field_columns.items():
            layout.field(name)  # raises KeyError on unknown fields
            offset = layout.offset(name)
            if np.ndim(values) == 0:
                shifted = int(values) << offset
                words = [word | shifted for word in words]
            else:
                column = np.asarray(values).tolist()
                if len(column) != count:
                    raise ValueError(
                        f"field {name!r} has {len(column)} values for {count} packets"
                    )
                words = [word | (value << offset) for word, value in zip(words, column)]
        flows = [None] * count if flow_ids is None else list(flow_ids)
        return cls(layout, words, flows, size_bytes)

    def packets(self) -> List[Packet]:
        """The burst's :class:`Packet` objects, in packet order."""
        layout = self.layout
        size = self.size_bytes
        created_at = self.created_at
        ingress = self.ingress_switch
        out = []
        for bits, flow_id, packet_id in zip(
            self.header_bits, self.flow_ids, self.packet_ids
        ):
            packet = Packet.__new__(Packet)
            packet.layout = layout
            packet.header_bits = bits
            packet.flow_id = flow_id
            packet.size_bytes = size
            packet.packet_id = packet_id
            packet.created_at = created_at
            packet.ingress_switch = ingress
            packet.encap_destination = None
            packet.hops = 0
            packet.via_authority = False
            packet.via_controller = False
            out.append(packet)
        return out

    def __len__(self) -> int:
        return len(self.packet_ids)

    def __repr__(self) -> str:
        return f"<PacketBatch n={len(self)} ingress={self.ingress_switch}>"
