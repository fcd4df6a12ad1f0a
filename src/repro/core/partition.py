"""Decision-tree flow-space partitioning (DIFANE paper §3).

The controller must divide the operator's wildcard rule set across k
authority switches so that (a) the partitions exactly tile the flow space —
every packet has exactly one owning authority switch, found with a *single*
TCAM lookup on the ingress switch's partition rules — and (b) the TCAM cost
is balanced and small.  A wildcard rule that straddles a partition boundary
must be *split*: each overlapping partition stores the rule clipped to its
region, so splitting inflates total TCAM usage.  The algorithm is therefore
a binary decision tree over header **bits**:

1. start with the full header space as one region containing every rule;
2. repeatedly take the region with the most rules and cut it on the
   wildcard bit that (first) splits the fewest rules and (second) balances
   the two halves best;
3. stop when the requested number of partitions is reached or every region
   is under the per-partition budget.

Leaves tile the space by construction (each cut is an exact binary
partition of the parent region), and each leaf region is a single ternary
string — so a partition rule is **one TCAM entry**, which is the property
that keeps ingress partition tables tiny.

The rule-bit matrix is held in numpy so cut selection is vectorized; a
10K-rule, 104-bit policy partitions into 64 leaves in well under a second.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flowspace.action import Encapsulate
from repro.flowspace.fields import HeaderLayout
from repro.flowspace.rule import Match, Rule, RuleKind
from repro.flowspace.ternary import Ternary

__all__ = [
    "Partition",
    "PartitionResult",
    "partition_policy",
    "assign_partitions",
    "greedy_pack",
    "assign_partitions_to_shards",
    "build_partition_rules",
]


@dataclass
class Partition:
    """One leaf of the partition tree.

    Attributes
    ----------
    partition_id:
        Dense index (stable across runs for the same inputs).
    region:
        The ternary string describing the leaf's slice of flow space.
        Regions of distinct partitions are disjoint and their union is the
        full header space.
    rules:
        The policy rules overlapping the region, **clipped** to it, in
        original priority order.  These are the authority rules stored at
        whichever switch owns the partition.
    depth:
        Depth of the leaf in the decision tree (number of cut bits).
    """

    partition_id: int
    region: Ternary
    rules: List[Rule]
    depth: int

    @property
    def entry_count(self) -> int:
        """TCAM entries this partition costs at its authority switch."""
        return len(self.rules)

    def contains_bits(self, header_bits: int) -> bool:
        """True when a packet with ``header_bits`` belongs to this partition."""
        return self.region.matches(header_bits)

    def __repr__(self) -> str:
        return (
            f"<Partition {self.partition_id} depth={self.depth} "
            f"rules={len(self.rules)} region={_short(self.region)}>"
        )


@dataclass
class PartitionResult:
    """Output of :func:`partition_policy` plus accounting.

    ``duplication_overhead`` is the paper's split metric: total clipped
    entries minus original rules (0 means no rule straddles a boundary).
    """

    layout: HeaderLayout
    partitions: List[Partition]
    original_rule_count: int
    cut_strategy: str

    @property
    def total_entries(self) -> int:
        """Sum of authority-rule entries across partitions."""
        return sum(p.entry_count for p in self.partitions)

    @property
    def duplication_overhead(self) -> int:
        """Extra TCAM entries caused by rule splitting."""
        return self.total_entries - self.original_rule_count

    @property
    def duplication_factor(self) -> float:
        """``total_entries / original_rule_count`` (1.0 = no splitting)."""
        if self.original_rule_count == 0:
            return 1.0
        return self.total_entries / self.original_rule_count

    @property
    def max_partition_entries(self) -> int:
        """Largest per-partition TCAM footprint (the balance metric)."""
        return max((p.entry_count for p in self.partitions), default=0)

    def find_partition(self, header_bits: int) -> Optional[Partition]:
        """The unique partition containing ``header_bits``."""
        for partition in self.partitions:
            if partition.contains_bits(header_bits):
                return partition
        return None

    def __repr__(self) -> str:
        return (
            f"<PartitionResult {len(self.partitions)} partitions, "
            f"{self.total_entries} entries from {self.original_rule_count} rules>"
        )


# ---------------------------------------------------------------------------
# The partitioner
# ---------------------------------------------------------------------------

#: Symbol codes in the rule-bit matrix.
_ZERO, _ONE, _WILD = 0, 1, 2


class _Node:
    """Internal tree node during construction."""

    __slots__ = ("region", "indices", "depth", "splittable")

    def __init__(self, region: Ternary, indices: np.ndarray, depth: int):
        self.region = region
        self.indices = indices
        self.depth = depth
        self.splittable = True


def partition_policy(
    rules: Sequence[Rule],
    layout: HeaderLayout,
    num_partitions: Optional[int] = None,
    max_rules_per_partition: Optional[int] = None,
    cut_strategy: str = "split-aware",
    allowed_fields: Optional[Sequence[str]] = None,
) -> PartitionResult:
    """Partition ``rules`` into flow-space regions.

    Parameters
    ----------
    rules:
        Policy rules in priority order (highest first).  Order is
        preserved inside every partition.
    layout:
        The shared header layout.
    num_partitions:
        Grow the tree until exactly this many leaves exist (modulo
        unsplittable leaves).  This is the "k authority switches" mode the
        paper's partitioning evaluation sweeps.
    max_rules_per_partition:
        Alternatively (or additionally) split until every leaf holds at
        most this many clipped rules — the "fit each partition in one
        switch's TCAM" mode.
    cut_strategy:
        ``"split-aware"`` (the paper's heuristic: minimize split rules,
        then balance) or ``"occupancy"`` (naive: balance only) — the
        ablation in experiment E10.
    allowed_fields:
        Restrict cut positions to these header fields (e.g.
        ``["nw_dst"]``) — the single-dimension ablation.  ``None`` allows
        every bit, which is DIFANE's multi-dimensional partitioning.

    Returns
    -------
    PartitionResult
        Leaves tile the space; every leaf's rules are clipped to it.
    """
    if num_partitions is None and max_rules_per_partition is None:
        raise ValueError("specify num_partitions and/or max_rules_per_partition")
    if num_partitions is not None and num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    if cut_strategy not in ("split-aware", "occupancy"):
        raise ValueError(f"unknown cut strategy {cut_strategy!r}")
    for rule in rules:
        if rule.match.layout != layout:
            raise ValueError("all rules must share the partitioning layout")

    width = layout.width
    cuttable: Optional[frozenset] = None
    if allowed_fields is not None:
        cuttable_positions = set()
        for name in allowed_fields:
            offset = layout.offset(name)  # raises KeyError on unknown field
            cuttable_positions.update(
                range(offset, offset + layout.field(name).width)
            )
        cuttable = frozenset(cuttable_positions)
        if not cuttable:
            raise ValueError("allowed_fields selected no bits")
    matrix = _rule_bit_matrix(rules, width)
    root = _Node(Ternary.wildcard(width), np.arange(len(rules)), 0)

    # Max-heap of splittable leaves keyed by rule count (ties: creation
    # order, for determinism).
    counter = itertools.count()
    heap: List[Tuple[int, int, _Node]] = []
    finished: List[_Node] = []

    def push(node: _Node) -> None:
        """Queue a leaf for further splitting, or finalize it."""
        if _needs_split(node, max_rules_per_partition) or num_partitions is not None:
            heapq.heappush(heap, (-len(node.indices), next(counter), node))
        else:
            finished.append(node)

    push(root)

    while heap:
        leaves_now = len(heap) + len(finished)
        target_reached = num_partitions is None or leaves_now >= num_partitions
        size_satisfied = not _needs_split(heap[0][2], max_rules_per_partition)
        if target_reached and size_satisfied:
            break
        if target_reached and num_partitions is not None and max_rules_per_partition is None:
            break
        _, _, node = heapq.heappop(heap)
        cut = _choose_cut(node, matrix, cut_strategy, cuttable)
        if cut is None:
            node.splittable = False
            finished.append(node)
            # When the node can't split further, a pure size goal can never
            # be met for it; keep going for the remaining leaves.
            continue
        left, right = _split(node, matrix, cut)
        push(left)
        push(right)

    leaves = finished + [entry[2] for entry in heap]
    leaves.sort(key=lambda n: (n.region.mask, n.region.value))
    partitions = [
        Partition(
            partition_id=index,
            region=leaf.region,
            rules=_clip_rules(rules, leaf, matrix),
            depth=leaf.depth,
        )
        for index, leaf in enumerate(leaves)
    ]
    return PartitionResult(
        layout=layout,
        partitions=partitions,
        original_rule_count=len(rules),
        cut_strategy=cut_strategy,
    )


def _needs_split(node: _Node, max_rules: Optional[int]) -> bool:
    if max_rules is None:
        return False
    return node.splittable and len(node.indices) > max_rules


def _rule_bit_matrix(rules: Sequence[Rule], width: int) -> np.ndarray:
    """Encode every rule's match as a row of {0, 1, x} codes."""
    matrix = np.full((len(rules), width), _WILD, dtype=np.int8)
    for row, rule in enumerate(rules):
        ternary = rule.match.ternary
        mask, value = ternary.mask, ternary.value
        position = 0
        while mask >> position:
            if (mask >> position) & 1:
                matrix[row, position] = _ONE if (value >> position) & 1 else _ZERO
            position += 1
    return matrix


def _choose_cut(
    node: _Node,
    matrix: np.ndarray,
    strategy: str,
    cuttable: Optional[frozenset] = None,
) -> Optional[int]:
    """Pick the bit to cut ``node`` on, or ``None`` when nothing helps.

    A candidate bit must still be wildcard in the node's region and must
    actually discriminate (at least one rule cares about it); otherwise the
    cut would duplicate every rule into both children for no benefit.
    Empty nodes may still be cut (to honour a partition-count target), on
    the lowest free bit.
    """
    region = node.region
    free_positions = [
        p for p in range(region.width)
        if region.bit(p) == "x" and (cuttable is None or p in cuttable)
    ]
    if not free_positions:
        return None
    if len(node.indices) == 0:
        return free_positions[0]

    positions = np.asarray(free_positions)
    sub = matrix[np.ix_(node.indices, positions)]
    total = len(node.indices)
    zeros = np.count_nonzero(sub == _ZERO, axis=0)
    ones = np.count_nonzero(sub == _ONE, axis=0)
    discriminating = (zeros + ones) > 0
    if not discriminating.any():
        return None  # every rule straddles every candidate: pure duplication
    positions = positions[discriminating]
    zeros = zeros[discriminating]
    ones = ones[discriminating]
    wilds = total - zeros - ones
    imbalance = np.abs((zeros + wilds) - (ones + wilds))
    if strategy == "split-aware":
        key_minor, key_major = imbalance, wilds
    else:  # occupancy: naive balance-only heuristic (ablation)
        key_minor, key_major = wilds, imbalance
    # lexsort keys are last-is-primary; equivalent to minimizing the tuple
    # (major, minor, position) over discriminating candidates.
    best = np.lexsort((positions, key_minor, key_major))[0]
    return int(positions[best])


def _split(node: _Node, matrix: np.ndarray, position: int) -> Tuple[_Node, _Node]:
    """Cut ``node`` at ``position`` into the bit=0 and bit=1 children."""
    column = matrix[node.indices, position]
    left_indices = node.indices[column != _ONE]
    right_indices = node.indices[column != _ZERO]
    left = _Node(node.region.with_bit(position, "0"), left_indices, node.depth + 1)
    right = _Node(node.region.with_bit(position, "1"), right_indices, node.depth + 1)
    return left, right


def _clip_rules(rules: Sequence[Rule], leaf: _Node, matrix: np.ndarray) -> List[Rule]:
    """Clip the leaf's rules to its region, in lookup order.

    Fragments are ordered by ``(-priority, original index)`` — identical to
    :class:`~repro.flowspace.table.RuleTable`'s ordering (priority, ties by
    insertion) — so the fragment list is directly a lookup sequence even
    when the input policy was not pre-sorted.
    """
    clipped: List[Rule] = []
    order = sorted(
        (int(i) for i in leaf.indices),
        key=lambda i: (-rules[i].priority, i),
    )
    for index in order:
        rule = rules[index]
        fragment = rule.clip_to(leaf.region)
        if fragment is not None:
            fragment.kind = RuleKind.AUTHORITY
            clipped.append(fragment)
    return clipped


# ---------------------------------------------------------------------------
# Assignment and partition rules
# ---------------------------------------------------------------------------

def greedy_pack(weights: Dict[int, float], candidates: Sequence[str], replication: int = 1
                ) -> Tuple[Dict[int, List[str]], Dict[str, float]]:
    """Greedy bin packing: partitions in ``(-weight, pid)`` order, each onto
    the ``replication`` candidates least by ``(load, name)``, adding
    ``max(weight, 1)`` to each.  Returns (pid -> chosen, candidate -> load).
    """
    load = {name: 0 for name in candidates}
    assignment: Dict[int, List[str]] = {}
    for pid in sorted(weights, key=lambda p: (-weights[p], p)):
        chosen = sorted(load, key=lambda name: (load[name], name))[:replication]
        assignment[pid] = chosen
        for name in chosen:
            load[name] += max(weights[pid], 1)
    return assignment, load


def assign_partitions(
    partitions: Sequence[Partition],
    authority_switches: Sequence[str],
    replication: int = 1,
) -> Dict[int, List[str]]:
    """Assign each partition to ``replication`` authority switches.

    Greedy balanced bin packing on TCAM entries: partitions are placed
    largest-first onto the currently least-loaded switches.  The first
    switch in each partition's list is the **primary** (partition rules
    point at it); the rest are backups used on failover (paper §4.3).
    """
    if not authority_switches:
        raise ValueError("need at least one authority switch")
    replication = min(replication, len(authority_switches))
    if replication < 1:
        raise ValueError("replication must be >= 1")
    weights = {p.partition_id: p.entry_count for p in partitions}
    return greedy_pack(weights, authority_switches, replication)[0]


def assign_partitions_to_shards(
    partition_ids: Sequence[int],
    n_shards: int,
    seed: int = 0,
) -> Dict[int, int]:
    """Deterministic partition → controller-shard ownership.

    Ownership is a pure function of ``(seed, partition id, shard
    count)`` via the sweep runner's SHA-256 seed derivation — stable
    across processes, worker counts, and membership churn elsewhere, so
    two replicas of the control plane always agree on who owns what
    without talking.
    """
    from repro.parallel.seeds import derive_seed

    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return {
        pid: derive_seed(seed, ("shard", pid, n_shards)) % n_shards
        for pid in partition_ids
    }


def build_partition_rules(
    partitions: Sequence[Partition],
    assignment: Dict[int, List[str]],
    layout: HeaderLayout,
) -> List[Rule]:
    """Build the ingress partition rules (one TCAM entry per partition).

    Each rule matches a partition's region and encapsulates to its primary
    authority switch.  Regions are disjoint, so priorities are irrelevant
    for correctness; 0 keeps them visibly below everything else.
    """
    rules = []
    for partition in partitions:
        primary = assignment[partition.partition_id][0]
        rules.append(
            Rule(
                match=Match(layout, partition.region),
                priority=0,
                actions=Encapsulate(primary),
                kind=RuleKind.PARTITION,
            )
        )
    return rules


def _short(ternary: Ternary) -> str:
    text = str(ternary)
    return text if len(text) <= 24 else text[:21] + "..."
