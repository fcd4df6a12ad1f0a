"""Header field layout for the OpenFlow 1.0 style match tuple.

DIFANE rules match on the standard flow tuple.  We model the header as a
fixed, named layout of bit fields packed into one wide bit string so that
the partitioning and header-space machinery can treat the whole header as a
single ternary value, while user-facing code speaks in field names, CIDR
prefixes and port numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.flowspace.bits import is_contiguous_prefix_mask, mask_of_width, popcount
from repro.flowspace.ternary import Ternary

__all__ = [
    "FieldSpec",
    "HeaderLayout",
    "OPENFLOW_10_LAYOUT",
    "FIVE_TUPLE_LAYOUT",
    "TWO_FIELD_LAYOUT",
    "ip_prefix_to_ternary",
    "ternary_to_ip_prefix",
    "parse_ip",
    "format_ip",
]


@dataclass(frozen=True)
class FieldSpec:
    """One named header field.

    Attributes
    ----------
    name:
        Field identifier, e.g. ``"nw_src"``.
    width:
        Field width in bits.
    """

    name: str
    width: int

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"field {self.name!r} must have positive width")


class HeaderLayout:
    """An ordered collection of :class:`FieldSpec` packed into one bit string.

    The first field occupies the most significant bits, so a printed ternary
    reads left-to-right in field order.  Layouts are immutable and hashable;
    rules, packets and tables all carry a reference to the layout they were
    built against and refuse to mix layouts.
    """

    def __init__(self, fields: Sequence[FieldSpec]):
        if not fields:
            raise ValueError("a header layout needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in layout: {names}")
        self._fields: Tuple[FieldSpec, ...] = tuple(fields)
        self._width = sum(f.width for f in fields)
        # Offset of each field's least-significant bit within the packed word.
        offsets: Dict[str, int] = {}
        cursor = self._width
        for field in self._fields:
            cursor -= field.width
            offsets[field.name] = cursor
        self._offsets = offsets
        self._by_name = {f.name: f for f in self._fields}
        #: name -> (offset, largest value), for pack_values.
        self._pack_table = {f.name: (offsets[f.name], mask_of_width(f.width)) for f in self._fields}
        # Every Match hash folds in its layout's; hash the fields once.
        self._hash = hash(self._fields)

    # -- introspection -----------------------------------------------------
    @property
    def fields(self) -> Tuple[FieldSpec, ...]:
        """The fields in layout order (most significant first)."""
        return self._fields

    @property
    def width(self) -> int:
        """Total packed width in bits."""
        return self._width

    def field(self, name: str) -> FieldSpec:
        """Look up a field by name; raises :class:`KeyError` if unknown."""
        return self._by_name[name]

    def offset(self, name: str) -> int:
        """LSB offset of ``name`` within the packed header word."""
        return self._offsets[name]

    def names(self) -> List[str]:
        """Field names in layout order."""
        return [f.name for f in self._fields]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeaderLayout):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: ``_hash`` covers ``str`` hashes,
        # which differ per interpreter, so it must not cross a pickle.
        return (HeaderLayout, (self._fields,))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.width}" for f in self._fields)
        return f"HeaderLayout({inner})"

    # -- packing -------------------------------------------------------------
    def pack_values(self, **field_values: int) -> int:
        """Pack concrete per-field integers into one header word.

        Unspecified fields default to zero.  Raises on unknown fields or
        out-of-range values.
        """
        word = 0
        table = self._pack_table
        for name, value in field_values.items():
            entry = table.get(name)
            if entry is None:
                raise KeyError(f"unknown field {name!r} (layout has {self.names()})")
            offset, limit = entry
            if value < 0 or value > limit:
                raise ValueError(
                    f"value {value} out of range for field {name} ({limit.bit_length()} bits)"
                )
            word |= value << offset
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        """Split a packed header word back into per-field integers."""
        return {
            f.name: (word >> self._offsets[f.name]) & mask_of_width(f.width)
            for f in self._fields
        }

    def pack_match(self, **field_matches) -> Ternary:
        """Pack per-field matches into one ternary over the full header.

        Each keyword value may be:

        * an ``int`` — exact match on the field,
        * a :class:`Ternary` of the field's width,
        * a string of ``0/1/x`` characters of the field's width,
        * a ``(value, prefix_len)`` tuple — prefix match,
        * ``None`` — fully wildcarded (same as omitting the field).
        """
        result = Ternary.wildcard(0)
        for spec in self._fields:
            provided = field_matches.pop(spec.name, None)
            result = result.concat(self._coerce_field(spec, provided))
        if field_matches:
            raise KeyError(f"unknown fields {sorted(field_matches)} (layout has {self.names()})")
        return result

    def field_ternary(self, match: Ternary, name: str) -> Ternary:
        """Extract the sub-ternary for field ``name`` from a packed match."""
        if match.width != self._width:
            raise ValueError(f"match width {match.width} != layout width {self._width}")
        spec = self._by_name[name]
        return match.extract(self._offsets[name], spec.width)

    def field_of_bit(self, position: int) -> str:
        """Name of the field containing packed bit ``position`` (LSB-based)."""
        if not 0 <= position < self._width:
            raise IndexError(f"bit {position} outside header of width {self._width}")
        for field in self._fields:
            offset = self._offsets[field.name]
            if offset <= position < offset + field.width:
                return field.name
        raise AssertionError("unreachable: layout offsets are exhaustive")

    def describe_match(self, match: Ternary) -> str:
        """Render a packed match as ``field=pattern`` pairs, skipping wildcards."""
        parts = []
        for field in self._fields:
            sub = self.field_ternary(match, field.name)
            if sub.is_wildcard():
                continue
            if field.width == 32 and is_contiguous_prefix_mask(sub.mask, 32):
                parts.append(f"{field.name}={ternary_to_ip_prefix(sub)}")
            elif sub.is_exact():
                parts.append(f"{field.name}={sub.value}")
            else:
                parts.append(f"{field.name}={sub}")
        return ", ".join(parts) if parts else "*"

    # -- helpers ---------------------------------------------------------------
    def _coerce_field(self, spec: FieldSpec, provided) -> Ternary:
        if provided is None:
            return Ternary.wildcard(spec.width)
        if isinstance(provided, Ternary):
            if provided.width != spec.width:
                raise ValueError(
                    f"ternary width {provided.width} != field {spec.name} width {spec.width}"
                )
            return provided
        if isinstance(provided, str):
            if "/" in provided and spec.width == 32:
                return ip_prefix_to_ternary(provided)
            ternary = Ternary.from_string(provided)
            if ternary.width != spec.width:
                raise ValueError(
                    f"pattern {provided!r} width {ternary.width} != field width {spec.width}"
                )
            return ternary
        if isinstance(provided, tuple):
            value, prefix_len = provided
            return Ternary.from_prefix(value, prefix_len, spec.width)
        if isinstance(provided, int):
            return Ternary.exact(provided, spec.width)
        raise TypeError(f"cannot interpret {provided!r} as a match for field {spec.name}")


# ---------------------------------------------------------------------------
# Standard layouts
# ---------------------------------------------------------------------------

#: The OpenFlow 1.0 inspired match tuple used throughout the reproduction.
#: (We omit ingress port — DIFANE's flow-space partitioning operates on the
#: header fields; per-port behaviour is modelled at the switch layer.)
OPENFLOW_10_LAYOUT = HeaderLayout(
    [
        FieldSpec("dl_src", 48),
        FieldSpec("dl_dst", 48),
        FieldSpec("dl_type", 16),
        FieldSpec("nw_src", 32),
        FieldSpec("nw_dst", 32),
        FieldSpec("nw_proto", 8),
        FieldSpec("tp_src", 16),
        FieldSpec("tp_dst", 16),
    ]
)

#: The classic 5-tuple layout used by the ClassBench-style generator and the
#: partitioning experiments — matches the dimensionality the paper's
#: evaluation policies use.
FIVE_TUPLE_LAYOUT = HeaderLayout(
    [
        FieldSpec("nw_src", 32),
        FieldSpec("nw_dst", 32),
        FieldSpec("nw_proto", 8),
        FieldSpec("tp_src", 16),
        FieldSpec("tp_dst", 16),
    ]
)

#: The IPv6 5-tuple.  The paper's TCAM-pressure argument sharpens with
#: IPv6 (128-bit addresses quadruple the address bits per entry); every
#: algorithm here is width-generic, so DIFANE runs unchanged over this
#: 296-bit header — see ``tests/test_ipv6.py`` for the demonstration.
IPV6_FIVE_TUPLE_LAYOUT = HeaderLayout(
    [
        FieldSpec("nw_src", 128),
        FieldSpec("nw_dst", 128),
        FieldSpec("nw_proto", 8),
        FieldSpec("tp_src", 16),
        FieldSpec("tp_dst", 16),
    ]
)

#: A compact two-field layout, handy for unit tests and worked examples
#: (mirrors the F1/F2 pictures papers draw).
TWO_FIELD_LAYOUT = HeaderLayout([FieldSpec("f1", 8), FieldSpec("f2", 8)])


# ---------------------------------------------------------------------------
# IP notation helpers
# ---------------------------------------------------------------------------

def parse_ip(text: str) -> int:
    """Parse dotted-quad IPv4 notation into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 octet {part!r} in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Format a 32-bit integer as dotted-quad IPv4 notation."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 value {value} out of range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def ip_prefix_to_ternary(prefix: str) -> Ternary:
    """Convert CIDR notation (``"10.0.0.0/8"``) to a 32-bit prefix ternary."""
    if "/" in prefix:
        address, _, length_text = prefix.partition("/")
        length = int(length_text)
    else:
        address, length = prefix, 32
    if not 0 <= length <= 32:
        raise ValueError(f"invalid prefix length in {prefix!r}")
    return Ternary.from_prefix(parse_ip(address), length, 32)


def ternary_to_ip_prefix(ternary: Ternary) -> str:
    """Render a 32-bit prefix ternary back to CIDR notation."""
    if ternary.width != 32:
        raise ValueError(f"expected a 32-bit ternary, got width {ternary.width}")
    if not is_contiguous_prefix_mask(ternary.mask, 32):
        raise ValueError(f"{ternary!r} is not a prefix match")
    length = popcount(ternary.mask)
    return f"{format_ip(ternary.value)}/{length}"
