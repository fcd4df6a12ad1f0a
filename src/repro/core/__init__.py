"""DIFANE core: the paper's contribution.

* :mod:`repro.core.partition` — decision-tree flow-space partitioning
  (paper §3): cut the header space into hyper-rectangles, minimizing rule
  splits and balancing load, and clip the policy rules into each partition.
* :mod:`repro.core.cachegen` — independent wildcard cache-rule generation
  (paper §3.2): given the rule a redirected packet hit at an authority
  switch, produce a cache rule that can be installed alone at the ingress
  switch without stealing traffic from higher-priority rules.
* :mod:`repro.core.authority` / :mod:`repro.core.ingress` — the DIFANE
  switch behaviour (one class: every DIFANE switch can play both roles).
* :mod:`repro.core.controller` — the proactive DIFANE controller:
  partition distribution, policy changes, topology changes, host mobility,
  authority failover (paper §4).
* :mod:`repro.core.placement` — authority-switch placement strategies.
"""

from repro.core.partition import (
    Partition,
    PartitionResult,
    partition_policy,
    assign_partitions,
)
from repro.core.cachegen import generate_cache_rule, generate_cache_rules
from repro.core.authority import DifaneSwitch
from repro.core.controller import (
    DifaneController,
    DifaneNetwork,
    HeartbeatMonitor,
    PartitionInvariantError,
)
from repro.core.placement import choose_authority_switches
from repro.core.dynamics import ChurnEvent, ChurnWorkload
from repro.core.frontend import DifaneFrontend

__all__ = [
    "Partition",
    "PartitionResult",
    "partition_policy",
    "assign_partitions",
    "generate_cache_rule",
    "generate_cache_rules",
    "DifaneSwitch",
    "DifaneController",
    "DifaneNetwork",
    "HeartbeatMonitor",
    "PartitionInvariantError",
    "choose_authority_switches",
    "ChurnEvent",
    "ChurnWorkload",
    "DifaneFrontend",
]
