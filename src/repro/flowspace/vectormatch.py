"""Vectorized wildcard matching over columnar packet batches.

A :class:`VectorMatcher` compiles a priority-ordered rule list into one
``(rules,)`` ``uint64`` mask array and value array per header field that
at least one rule cares about, and classifies a whole
:class:`~repro.flowspace.batch.PacketBatch` with one broadcast compare per
such field: ``(column[:, None] & masks) == values`` is a
``(packets, rules)`` boolean, and the first ``True`` of a row is that
packet's winner.  This is semantically identical to the engines'
per-packet lookup (highest priority wins, insertion order breaks ties)
because the rows are in exactly the engine's lookup order.

Cost model: compiling is a few integer shifts per rule and field, cheap
enough to redo whenever the table's version moves (nothing to keep in sync
under cache-table churn); matching is one numpy pass over a ``packets x
rules`` array per cared field.  For very large tables the TCAM falls back
to the engine's ``batch_lookup`` (see ``Tcam.match_batch``), which is O(1)
dispatches but per-packet Python.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.flowspace.bits import mask_of_width
from repro.flowspace.fields import HeaderLayout
from repro.flowspace.rule import Rule

__all__ = ["VectorMatcher"]


class VectorMatcher:
    """Compiled vector classifier for one rule list (in lookup order)."""

    __slots__ = ("rules", "_fields")

    def __init__(self, layout: HeaderLayout, rules: Sequence[Rule]):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        masks = [rule.match.ternary.mask for rule in self.rules]
        values = [rule.match.ternary.value for rule in self.rules]
        fields: List[Tuple[str, np.ndarray, np.ndarray]] = []
        for spec in layout.fields:
            shift = layout.offset(spec.name)
            window = mask_of_width(spec.width)
            cared = [(mask >> shift) & window for mask in masks]
            if any(cared):
                wanted = [(value >> shift) & window for value in values]
                fields.append((spec.name, np.array(cared, dtype=np.uint64),
                               np.array(wanted, dtype=np.uint64)))
        self._fields = fields

    def match(self, columns) -> np.ndarray:
        """Winner rule index per packet (``-1`` = miss) over field columns.

        ``columns`` is the batch's ``{field name: uint64 array}`` mapping.
        """
        first = next(iter(columns.values())) if columns else None
        count = len(first) if first is not None else 0
        if count == 0 or not self.rules:
            return np.full(count, -1, dtype=np.int64)
        # No cared field at all means every rule is a full wildcard.
        hit = np.ones((count, len(self.rules)), dtype=bool)
        for name, masks, values in self._fields:
            hit &= (columns[name][:, None] & masks) == values
        winners = hit.argmax(axis=1).astype(np.int64, copy=False)
        winners[~hit.any(axis=1)] = -1
        return winners

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"<VectorMatcher {len(self.rules)} rules>"
