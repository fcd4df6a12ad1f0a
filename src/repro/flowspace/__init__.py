"""Flow-space substrate: ternary matches, packets, rules, and set arithmetic.

This subpackage is the foundation everything else in the reproduction is
built on.  It models the match semantics of an OpenFlow 1.0 style switch:

* :mod:`repro.flowspace.ternary` — bit-level ternary (0/1/don't-care) match
  strings with intersection, subsumption and subtraction.
* :mod:`repro.flowspace.fields` — the header tuple layout (src/dst IP, ports,
  protocol, ...) and conversions from human-friendly notation (CIDR prefixes,
  port ranges) to ternary matches.
* :mod:`repro.flowspace.packet` — concrete packet headers.
* :mod:`repro.flowspace.rule` — prioritized wildcard rules with actions.
* :mod:`repro.flowspace.table` — prioritized rule tables with lookup,
  shadow analysis and semantic-equivalence checking.
* :mod:`repro.flowspace.headerspace` — unions of ternary strings (header
  space algebra) used by the partitioning and cache-generation algorithms.
"""

from repro.flowspace.ternary import Ternary
from repro.flowspace.fields import (
    FieldSpec,
    HeaderLayout,
    OPENFLOW_10_LAYOUT,
    FIVE_TUPLE_LAYOUT,
    IPV6_FIVE_TUPLE_LAYOUT,
    TWO_FIELD_LAYOUT,
    ip_prefix_to_ternary,
    ternary_to_ip_prefix,
    parse_ip,
    format_ip,
)
from repro.flowspace.ranges import range_to_ternaries, ternary_to_range
from repro.flowspace.packet import Packet
from repro.flowspace.action import (
    Action,
    Forward,
    Drop,
    SendToController,
    Encapsulate,
    SetField,
    ActionList,
)
from repro.flowspace.rule import Match, Rule
from repro.flowspace.engine import LinearEngine
from repro.flowspace.table import RuleTable
from repro.flowspace.headerspace import HeaderSpace

__all__ = [
    "Ternary",
    "FieldSpec",
    "HeaderLayout",
    "OPENFLOW_10_LAYOUT",
    "FIVE_TUPLE_LAYOUT",
    "IPV6_FIVE_TUPLE_LAYOUT",
    "TWO_FIELD_LAYOUT",
    "ip_prefix_to_ternary",
    "ternary_to_ip_prefix",
    "parse_ip",
    "format_ip",
    "range_to_ternaries",
    "ternary_to_range",
    "Packet",
    "Action",
    "Forward",
    "Drop",
    "SendToController",
    "Encapsulate",
    "SetField",
    "ActionList",
    "Match",
    "Rule",
    "RuleTable",
    "LinearEngine",
    "HeaderSpace",
]
