"""DIFANE reproduction: scalable flow-based networking, in Python.

This package reproduces *"Scalable Flow-Based Networking with DIFANE"*
(Yu, Rexford, Freedman, Wang — SIGCOMM 2010): distributed rule management
that keeps all packets in the data plane by partitioning the flow space
across authority switches and reactively caching independent wildcard
rules at ingress switches.

Quick start::

    from repro import (TopologyBuilder, FIVE_TUPLE_LAYOUT,
                       routing_policy_for_topology, DifaneNetwork)

    topo = TopologyBuilder.three_tier_campus()
    rules, host_ips = routing_policy_for_topology(topo, FIVE_TUPLE_LAYOUT)
    net = DifaneNetwork.build(topo, rules, FIVE_TUPLE_LAYOUT,
                              authority_count=2, cache_capacity=128)

See DESIGN.md for the architecture and EXPERIMENTS.md for the reproduced
evaluation.
"""

from repro.flowspace import (
    Action,
    ActionList,
    Drop,
    Encapsulate,
    FieldSpec,
    FIVE_TUPLE_LAYOUT,
    Forward,
    format_ip,
    HeaderLayout,
    HeaderSpace,
    ip_prefix_to_ternary,
    Match,
    OPENFLOW_10_LAYOUT,
    Packet,
    parse_ip,
    Rule,
    RuleTable,
    SendToController,
    SetField,
    Ternary,
    ternary_to_ip_prefix,
    TWO_FIELD_LAYOUT,
)
from repro.flowspace.engine import LinearEngine
from repro.flowspace.rule import RuleKind
from repro.net import (
    EventScheduler,
    FailureInjector,
    LinkSpec,
    RoutingTable,
    ServiceStation,
    SimNetwork,
    Topology,
    TopologyBuilder,
    compute_routes,
)
from repro.switch import (
    CacheManager,
    DifanePipeline,
    EvictionPolicy,
    Tcam,
    TcamFullError,
    aggregate_counters,
)
from repro.core import (
    ChurnWorkload,
    DifaneController,
    DifaneNetwork,
    DifaneSwitch,
    Partition,
    PartitionResult,
    assign_partitions,
    build_partition_rules,
    choose_authority_switches,
    generate_cache_rule,
    generate_cache_rules,
    partition_policy,
)
from repro.baselines import (
    NoxController,
    NoxNetwork,
    NoxSwitch,
    ProactiveNetwork,
    ReplayTrace,
    simulate_microflow_cache,
    simulate_wildcard_cache,
)
from repro.workloads import (
    campus_policy,
    generate_classbench,
    packet_sequence,
    routing_policy_for_topology,
    Trace,
    vpn_policy,
    ZipfSampler,
)

__version__ = "1.0.0"

__all__ = [
    # flowspace
    "Ternary", "HeaderLayout", "FieldSpec", "Match", "Rule", "RuleKind",
    "RuleTable", "Packet", "HeaderSpace", "Action", "ActionList", "Forward",
    "LinearEngine",
    "Drop", "Encapsulate", "SendToController", "SetField",
    "OPENFLOW_10_LAYOUT", "FIVE_TUPLE_LAYOUT", "TWO_FIELD_LAYOUT",
    "parse_ip", "format_ip", "ip_prefix_to_ternary", "ternary_to_ip_prefix",
    # net
    "EventScheduler", "ServiceStation", "LinkSpec", "Topology",
    "TopologyBuilder", "RoutingTable", "compute_routes", "SimNetwork",
    "FailureInjector",
    # switch
    "Tcam", "TcamFullError", "CacheManager", "EvictionPolicy",
    "DifanePipeline", "aggregate_counters",
    # core
    "partition_policy", "Partition", "PartitionResult", "assign_partitions",
    "build_partition_rules", "generate_cache_rule", "generate_cache_rules",
    "DifaneSwitch", "DifaneController", "DifaneNetwork",
    "choose_authority_switches", "ChurnWorkload",
    # baselines
    "NoxController", "NoxSwitch", "NoxNetwork", "ProactiveNetwork",
    "ReplayTrace", "simulate_microflow_cache", "simulate_wildcard_cache",
    # workloads
    "generate_classbench", "campus_policy", "vpn_policy",
    "routing_policy_for_topology", "packet_sequence", "ZipfSampler", "Trace",
]
