"""Independent wildcard cache-rule generation (DIFANE paper §3.2).

Caching wildcard rules is the subtle part of DIFANE.  Overlapping rules
carry priorities, so installing the rule a packet hit — verbatim — at an
ingress switch would steal the overlap region from every higher-priority
rule that is *not* cached.  DIFANE's answer: the authority switch installs
the matched rule **clipped to the region where it actually wins**, i.e.
its match minus every higher-priority overlapping match.  Rules so clipped
are *independent*: win regions of distinct rules are disjoint by
construction, so any subset of them can be cached, in any priority order,
without changing the policy's semantics.

A win region may decompose into several ternary strings.  Installing all
of them for one miss could be expensive, so — like DIFANE — we install the
fragment containing the packet that missed (plus optionally a bounded
number of siblings); later misses in other fragments trigger their own
installs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.flowspace.headerspace import HeaderSpace
from repro.flowspace.rule import Match, Rule, RuleKind
from repro.flowspace.ternary import Ternary

__all__ = [
    "cache_rule",
    "generate_cache_rule",
    "generate_cache_rules",
    "win_region",
    "win_fragment",
    "WinRegionTooLarge",
]


class WinRegionTooLarge(Exception):
    """Raised when a win-region decomposition exceeds its member budget.

    Full decompositions can blow up exponentially in the number of
    higher-priority overlaps; callers that only *optionally* want the full
    set (prefetching) catch this and fall back to the single
    packet-containing fragment from :func:`win_fragment`.
    """


def win_region(
    rules: Sequence[Rule],
    target: Rule,
    max_members: Optional[int] = None,
) -> HeaderSpace:
    """The region where ``target`` wins a lookup against ``rules``.

    ``rules`` must be in lookup (priority) order and contain ``target``.
    The result is ``target``'s match minus every higher-priority
    overlapping match — possibly empty when the rule is shadowed.
    ``max_members`` bounds the intermediate decomposition size
    (:class:`WinRegionTooLarge` beyond it).
    """
    space = HeaderSpace.of(target.match.ternary)
    for rule in rules:
        if rule is target:
            return space
        if rule.match.intersects(target.match):
            space = space.subtract(rule.match.ternary)
            if max_members is not None and len(space) > max_members:
                raise WinRegionTooLarge(
                    f"win region of rule #{target.rule_id} exceeded "
                    f"{max_members} fragments"
                )
            if space.is_empty():
                # Shadowed within this table; nothing to win.
                return space
    raise ValueError("target rule is not present in the rule sequence")


def win_fragment(rules: Sequence[Rule], target: Rule, packet_bits: int):
    """The single win-region fragment of ``target`` containing the packet.

    Walks the rules ahead of ``target`` once.  Each costs three integer
    tests (matches the packet?  same width?  overlaps the region so far?);
    each one that does overlap clips the region to the piece containing
    the packet in O(1) big-int work and one allocation
    (:meth:`Ternary.subtract_containing`) — never the full decomposition,
    which is exponential in the overlaps, nor a piece per cared bit.  That
    is what lets an authority switch generate a cache rule per miss at
    line rate.  Returns a :class:`~repro.flowspace.ternary.Ternary`
    (``target``'s own when nothing clipped it), or ``None`` when the
    packet is not actually won by ``target``.
    """
    region = target.match.ternary
    mask, value, width = region.mask, region.value, region.width
    if (packet_bits & mask) != value:
        return None
    for rule in rules:
        if rule is target:
            return region
        other = rule.match.ternary
        if (packet_bits & other.mask) == other.value:
            # A higher-priority rule matches the packet: target did not win.
            return None
        if other.width != width:
            raise ValueError(f"width mismatch: {width} vs {other.width}")
        if not (value ^ other.value) & mask & other.mask:
            region = region.subtract_containing(other, packet_bits)
            mask, value = region.mask, region.value
    raise ValueError("target rule is not present in the rule sequence")


def generate_cache_rule(
    rules: Sequence[Rule],
    matched_rule: Rule,
    packet_bits: int,
) -> Optional[Rule]:
    """The independent cache rule covering the packet that just missed.

    Parameters
    ----------
    rules:
        The authority switch's rules in lookup order (the clipped rules of
        the partitions it owns).
    matched_rule:
        The rule the redirected packet hit (must be the lookup winner).
    packet_bits:
        The packed header of the packet.

    Returns
    -------
    Rule or None
        A :attr:`RuleKind.CACHE` rule whose match contains the packet and
        lies entirely inside ``matched_rule``'s win region, carrying the
        matched rule's actions; ``None`` if the packet is outside the win
        region (which indicates the caller passed a non-winning rule).
    """
    fragment = win_fragment(rules, matched_rule, packet_bits)
    return None if fragment is None else cache_rule(matched_rule, fragment)


def cache_rule(matched_rule: Rule, fragment: Ternary) -> Rule:
    """The :attr:`RuleKind.CACHE` rule installing one win-region fragment."""
    return matched_rule.derive(
        match=Match(matched_rule.match.layout, fragment),
        kind=RuleKind.CACHE,
    )


def generate_cache_rules(
    rules: Sequence[Rule],
    matched_rule: Rule,
    packet_bits: Optional[int] = None,
    max_fragments: Optional[int] = None,
    max_members: Optional[int] = None,
) -> List[Rule]:
    """All independent cache fragments of ``matched_rule``'s win region.

    When ``packet_bits`` is given, the fragment containing the packet is
    listed first (it must be installed; the rest are optional prefetch).
    ``max_fragments`` bounds the list — DIFANE keeps per-miss install cost
    constant this way.  ``max_members`` bounds the decomposition work
    (raising :class:`WinRegionTooLarge`).
    """
    region = win_region(rules, matched_rule, max_members=max_members)
    fragments = list(region.members)
    # Packet-containing fragment first (it must be installed), then
    # siblings smallest-first: small fragments hug the higher-priority
    # rules' boundaries, which is where clustered traffic lands next.
    if packet_bits is not None:
        fragments.sort(
            key=lambda f: (0 if f.matches(packet_bits) else 1, f.wildcard_bits())
        )
    if max_fragments is not None:
        fragments = fragments[:max_fragments]
    return [cache_rule(matched_rule, fragment) for fragment in fragments]
