"""Columnar packet batches — the struct-of-arrays hot-path representation.

A :class:`PacketBatch` holds a same-instant burst of packets as one numpy
column per header field plus parallel bookkeeping arrays (flow ids, packet
ids, sizes, hops, via-flags), instead of one :class:`Packet` object per
packet.  The burst path (inject → classify → forward → deliver) moves the
whole batch through one scheduler event per hop and classifies it with
vectorized mask compares (see :mod:`repro.flowspace.vectormatch`), which
is where the ≥10x injected-packets/s of ``bench_perf_core`` comes from.

Batches are *views with teeth*: :meth:`packets` materializes the exact
scalar :class:`Packet` list (same packet ids, same attribute values), so
the legacy per-packet path is always reachable and the columnar path can
be property-tested packet-for-packet against it.

Representable layouts
---------------------
Columns are ``uint64``, so every field must be at most 63 bits wide
(FIVE_TUPLE and OPENFLOW_10 qualify; the IPv6 layout's 128-bit addresses
do not).  Unsupported layouts still batch — the packed header words are
kept as Python ints and classification falls back to the engine's
``batch_lookup`` — they just don't vectorize.

Mode flag
---------
The columnar fast path is opt-in per process (CLI ``--columnar``).  With
the flag off (the default), batch entry points degrade to the scalar
oracle path with identical observable behaviour — that equivalence is
pinned by ``tests/test_columnar.py`` and the golden CI job.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet, reserve_packet_ids

__all__ = [
    "PacketBatch",
    "set_columnar",
    "columnar_enabled",
    "layout_vectorizes",
]

#: Widest field (bits) that fits a uint64 column without sign trouble.
_MAX_COLUMN_BITS = 63

_columnar = False


def set_columnar(enabled: bool) -> None:
    """Set the process-wide columnar mode (the CLI's ``--columnar`` flag)."""
    global _columnar
    _columnar = bool(enabled)


def columnar_enabled() -> bool:
    """True when the columnar burst fast path is active."""
    return _columnar


def layout_vectorizes(layout: HeaderLayout) -> bool:
    """True when every field of ``layout`` fits a uint64 column."""
    return all(spec.width <= _MAX_COLUMN_BITS for spec in layout.fields)


class PacketBatch:
    """A same-instant burst of packets in struct-of-arrays form.

    Per-packet data lives in parallel numpy arrays; the two attributes
    every packet of a batch shares (creation time, encapsulation state —
    :meth:`concat` joins only batches that agree on both) are scalars.
    Mutating helpers (:meth:`set_field`, ``hops += 1``, the via-flag
    arrays) match the scalar :class:`Packet` bookkeeping
    operation-for-operation.

    Attributes
    ----------
    fields:
        ``{field name: uint64 column}`` when the layout vectorizes, else
        ``None`` (the packed words in ``_bits`` are then authoritative).
    flow_ids:
        Object array of per-packet flow ids (``None`` allowed, matching
        ``Packet.flow_id``).
    packet_ids:
        int64 array drawn from the same global counter scalar packets use,
        so a burst consumes ids exactly as its scalar materialization would.
    ingress_switch:
        Object array of per-packet ingress switch names (``None`` until
        injection): batches from several ingresses merge at a shared hop.
    uniform_size:
        The size in bytes every packet has, or ``None`` when sizes differ
        (or are not known to agree) — lets a link skip reducing
        ``size_bytes`` on every send.
    """

    __slots__ = (
        "layout", "fields", "flow_ids", "packet_ids", "size_bytes", "hops",
        "via_authority", "via_controller", "created_at", "ingress_switch",
        "encap_destination", "uniform_size", "_bits",
    )

    def __init__(
        self,
        layout: HeaderLayout,
        fields: Optional[Dict[str, np.ndarray]],
        flow_ids: np.ndarray,
        packet_ids: np.ndarray,
        size_bytes: np.ndarray,
        hops: np.ndarray,
        via_authority: np.ndarray,
        via_controller: np.ndarray,
        created_at: Optional[float] = None,
        ingress_switch: Optional[np.ndarray] = None,
        encap_destination: Optional[str] = None,
        bits: Optional[List[int]] = None,
        uniform_size: Optional[int] = None,
    ):
        self.layout = layout
        self.fields = fields
        self.flow_ids = flow_ids
        self.packet_ids = packet_ids
        self.size_bytes = size_bytes
        self.hops = hops
        self.via_authority = via_authority
        self.via_controller = via_controller
        self.created_at = created_at
        self.ingress_switch = (
            np.full(len(packet_ids), None, dtype=object)
            if ingress_switch is None else ingress_switch
        )
        self.encap_destination = encap_destination
        self.uniform_size = uniform_size
        #: Lazily packed header words (list of Python ints; the layout may
        #: be wider than 64 bits, so these cannot live in numpy).
        self._bits = bits

    # -- constructors --------------------------------------------------------
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
        vectorizes = layout_vectorizes(layout)
        columns: Optional[Dict[str, np.ndarray]] = {} if vectorizes else None
        wide_values: Dict[str, Sequence[int]] = {}
        for name, values in field_columns.items():
            layout.field(name)  # raises KeyError on unknown fields
            if vectorizes:
                columns[name] = np.broadcast_to(
                    np.asarray(values, dtype=np.uint64), (count,)
                ).copy()
            else:
                # Python ints only: packed words exceed 64 bits, so numpy
                # integer types would overflow in the shift below.
                wide_values[name] = (
                    [int(values)] * count
                    if np.isscalar(values)
                    else [int(value) for value in values]
                )
        if vectorizes:
            for spec in layout.fields:
                if spec.name not in columns:
                    columns[spec.name] = np.zeros(count, dtype=np.uint64)
            bits = None
        else:
            bits = [
                layout.pack_values(**{n: v[i] for n, v in wide_values.items()})
                for i in range(count)
            ]
        if flow_ids is None:
            flow_array = np.full(count, None, dtype=object)
        else:
            flow_array = np.empty(count, dtype=object)
            flow_array[:] = list(flow_ids)
        return cls(
            layout,
            columns,
            flow_array,
            np.array(reserve_packet_ids(count), dtype=np.int64),
            np.full(count, size_bytes, dtype=np.int64),
            np.zeros(count, dtype=np.int32),
            np.zeros(count, dtype=bool),
            np.zeros(count, dtype=bool),
            bits=bits,
            uniform_size=size_bytes,
        )

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketBatch":
        """Adopt an existing scalar burst (shared attributes must be uniform).

        The packets keep their ids; the shared scalars (creation time,
        encapsulation) are taken from the first packet and must agree
        across the burst — batches model same-instant bursts, which is
        the only shape the injection APIs produce.
        """
        packets = list(packets)
        if not packets:
            raise ValueError("cannot batch zero packets")
        first = packets[0]
        layout = first.layout
        for packet in packets:
            if (
                packet.layout != layout
                or packet.created_at != first.created_at
                or packet.encap_destination != first.encap_destination
            ):
                raise ValueError("burst packets must share layout and shared scalars")
        count = len(packets)
        bits = [packet.header_bits for packet in packets]
        columns: Optional[Dict[str, np.ndarray]] = None
        if layout_vectorizes(layout):
            columns = _columns_from_bits(layout, bits)
        flow_array = np.empty(count, dtype=object)
        flow_array[:] = [packet.flow_id for packet in packets]
        ingress_array = np.empty(count, dtype=object)
        ingress_array[:] = [packet.ingress_switch for packet in packets]
        sizes = {packet.size_bytes for packet in packets}
        return cls(
            layout,
            columns,
            flow_array,
            np.array([packet.packet_id for packet in packets], dtype=np.int64),
            np.array([packet.size_bytes for packet in packets], dtype=np.int64),
            np.array([packet.hops for packet in packets], dtype=np.int32),
            np.array([packet.via_authority for packet in packets], dtype=bool),
            np.array([packet.via_controller for packet in packets], dtype=bool),
            created_at=first.created_at,
            ingress_switch=ingress_array,
            encap_destination=first.encap_destination,
            bits=bits,
            uniform_size=sizes.pop() if len(sizes) == 1 else None,
        )

    @classmethod
    def concat(cls, parts: Sequence["PacketBatch"]) -> "PacketBatch":
        """Join batches end to end (packet order: ``parts`` order, then each
        part's own).

        The parts must share layout, creation time and encapsulation —
        what stays a scalar on the result; everything per-packet
        (``ingress_switch`` included) is concatenated.  A single part is
        returned as is.
        """
        first = parts[0]
        if len(parts) == 1:
            return first

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(part, name) for part in parts])

        fields = None
        if first.fields is not None:
            fields = {
                name: np.concatenate([part.fields[name] for part in parts])
                for name in first.fields
            }
        bits = None
        if all(part._bits is not None for part in parts):
            bits = [word for part in parts for word in part._bits]
        size = first.uniform_size
        return cls(
            first.layout,
            fields,
            joined("flow_ids"),
            joined("packet_ids"),
            joined("size_bytes"),
            joined("hops"),
            joined("via_authority"),
            joined("via_controller"),
            created_at=first.created_at,
            ingress_switch=joined("ingress_switch"),
            encap_destination=first.encap_destination,
            bits=bits,
            uniform_size=(
                size if all(part.uniform_size == size for part in parts) else None
            ),
        )

    # -- scalar view -----------------------------------------------------------
    def packets(self) -> List[Packet]:
        """Materialize the exact scalar view of this batch.

        Every attribute — including ``packet_id`` — round-trips, so a
        columnar run and its scalar oracle see identical packets.
        """
        bits = self.header_bits_list()
        flow_ids = self.flow_ids
        packet_ids = self.packet_ids
        sizes = self.size_bytes
        hops = self.hops
        via_a = self.via_authority
        via_c = self.via_controller
        layout = self.layout
        created_at = self.created_at
        ingress = self.ingress_switch.tolist()
        encap = self.encap_destination
        out = []
        for i in range(len(packet_ids)):
            packet = Packet.__new__(Packet)
            packet.layout = layout
            packet.header_bits = bits[i]
            packet.flow_id = flow_ids[i]
            packet.size_bytes = int(sizes[i])
            packet.packet_id = int(packet_ids[i])
            packet.created_at = created_at
            packet.ingress_switch = ingress[i]
            packet.encap_destination = encap
            packet.hops = int(hops[i])
            packet.via_authority = bool(via_a[i])
            packet.via_controller = bool(via_c[i])
            out.append(packet)
        return out

    # -- packed header words ------------------------------------------------------
    def header_bits_list(self) -> List[int]:
        """The packed header word of every packet (cached until a rewrite)."""
        if self._bits is None:
            total = np.zeros(len(self), dtype=object)
            layout = self.layout
            for name, column in self.fields.items():
                offset = layout.offset(name)
                if offset:
                    total |= column.astype(object) << offset
                else:
                    total |= column.astype(object)
            self._bits = [int(word) for word in total]
        return self._bits

    # -- mutation ---------------------------------------------------------------
    def set_field(self, name: str, value: int) -> None:
        """Vectorized ``SetField`` rewrite (matches the scalar bit splice)."""
        spec = self.layout.field(name)
        masked = value & ((1 << spec.width) - 1)
        if self.fields is not None:
            self.fields[name][:] = np.uint64(masked)
            self._bits = None
            return
        offset = self.layout.offset(name)
        field_mask = ((1 << spec.width) - 1) << offset
        shifted = (value << offset) & field_mask
        self._bits = [
            (word & ~field_mask) | shifted for word in self.header_bits_list()
        ]

    def encapsulate(self, destination: str) -> None:
        """Tunnel the whole batch toward ``destination``."""
        self.encap_destination = destination

    def decapsulate(self) -> None:
        """Strip the tunnel header from the whole batch."""
        self.encap_destination = None

    # -- sub-batches -----------------------------------------------------------------
    def select(self, indices) -> "PacketBatch":
        """A sub-batch of the packets at ``indices`` (copies, own identity)."""
        indices = np.asarray(indices)
        fields = None
        if self.fields is not None:
            fields = {name: column[indices] for name, column in self.fields.items()}
        bits = None
        if self._bits is not None:
            existing = self._bits
            bits = [existing[i] for i in indices.tolist()]
        return PacketBatch(
            self.layout,
            fields,
            self.flow_ids[indices],
            self.packet_ids[indices],
            self.size_bytes[indices],
            self.hops[indices],
            self.via_authority[indices],
            self.via_controller[indices],
            created_at=self.created_at,
            ingress_switch=self.ingress_switch[indices],
            encap_destination=self.encap_destination,
            bits=bits,
            uniform_size=self.uniform_size,
        )

    # -- dunder -------------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.packet_ids)

    def __repr__(self) -> str:
        encap = f" encap={self.encap_destination}" if self.encap_destination else ""
        ingress = sorted({str(name) for name in self.ingress_switch.tolist()})
        return f"<PacketBatch n={len(self)} ingress={','.join(ingress)}{encap}>"


def _columns_from_bits(
    layout: HeaderLayout, bits: Sequence[int]
) -> Dict[str, np.ndarray]:
    """Unpack packed header words into per-field uint64 columns."""
    words = np.array(bits, dtype=object)
    columns: Dict[str, np.ndarray] = {}
    for spec in layout.fields:
        offset = layout.offset(spec.name)
        mask = (1 << spec.width) - 1
        columns[spec.name] = ((words >> offset) & mask).astype(np.uint64)
    return columns
