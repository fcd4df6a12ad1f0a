"""Workload generation: rule sets and traffic.

The paper evaluates on artifacts we cannot access (a campus network's
policy, an ISP VPN configuration, ClassBench with its released seeds, and
two-day packet traces).  This subpackage provides statistical equivalents
— see DESIGN.md §4 for the substitution rationale:

* :mod:`repro.workloads.classbench` — synthetic 5-tuple classifiers with
  ClassBench-style structure (prefix nesting, port classes, protocol mix)
  in ACL / firewall / IPC flavours.
* :mod:`repro.workloads.policies` — campus and VPN-provider policy
  synthesizers, plus topology-aligned routing policies for the simulator.
* :mod:`repro.workloads.traffic` — Zipf flow popularity, packet sequences
  and timed single-packet flow arrivals.
* :mod:`repro.workloads.zipf` — the Zipf sampler (cached CDF).
* :mod:`repro.workloads.streaming` — seed-closed streaming generators for
  million-host populations (diurnal load, flash crowds, mobility churn)
  yielding bursts lazily in bounded memory.
* :mod:`repro.workloads.trace` — record / save / replay packet traces.
"""

from repro.workloads.zipf import ZipfSampler
from repro.workloads.classbench import ClassBenchProfile, generate_classbench
from repro.workloads.policies import (
    campus_policy,
    vpn_policy,
    routing_policy_for_topology,
)
from repro.workloads.traffic import (
    TimedPacket,
    flow_headers_for_policy,
    packet_sequence,
    poisson_arrivals,
    host_pair_packets,
)
from repro.workloads.batches import TimedBatch
from repro.workloads.streaming import (
    StreamSpec,
    epoch_bursts,
    host_addresses,
    stream_bursts,
    streaming_policy,
    streaming_topology,
)
from repro.workloads.trace import Trace

__all__ = [
    "ZipfSampler",
    "ClassBenchProfile",
    "generate_classbench",
    "campus_policy",
    "vpn_policy",
    "routing_policy_for_topology",
    "TimedPacket",
    "flow_headers_for_policy",
    "packet_sequence",
    "poisson_arrivals",
    "host_pair_packets",
    "TimedBatch",
    "StreamSpec",
    "epoch_bursts",
    "host_addresses",
    "stream_bursts",
    "streaming_policy",
    "streaming_topology",
    "Trace",
]
