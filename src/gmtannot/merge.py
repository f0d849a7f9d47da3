"""Combining and comparing stand-off annotation layers.

Nodes from different documents are aligned by an *anchor key*: the
canonical form of their segment addressing (identifier targets sorted,
positional spans as ``start-end``, landmark endpoints as ``lm
start-end``).  Nodes without a segment fall back to their type plus the
anchor keys of their descendants; nodes with no anchor anywhere cannot
be aligned and always pass through unchanged.  Equal keys mean equal
addressing: see "Anchor keys" in ``docs/formats.md``.

Groups of same-key nodes express the three relations between parallel
annotations: keep-all keeps them side by side, dedup collapses
structurally identical ones, fold-alt turns plain feature bundles into
one alternative set on a single node (richer content is preserved in
per-source brackets; nodes with children fall back to keep-all).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from typing import Hashable, Iterable, Iterator, Optional

from .errors import MergeError
from .model import (
    CONFIDENCE_CAT,
    AltSet,
    Bracket,
    Bundle,
    Feature,
    GmtDocument,
    IdTargets,
    NodeItem,
    PositionalSpan,
    Relation,
    SegmentRef,
    StructNode,
    iter_items,
    walk_elements,
)

KEEP_ALL = "keep-all"
DEDUP_IDENTICAL = "dedup"
FOLD_TO_ALT = "fold-alt"
POLICIES = (KEEP_ALL, DEDUP_IDENTICAL, FOLD_TO_ALT)

ONLY_LEFT = "onlyLeft"
ONLY_RIGHT = "onlyRight"
BOTH_EQUAL = "bothEqual"
BOTH_DIFFER = "bothDiffer"


@dataclass(frozen=True)
class MergePolicy:
    """How parallel annotations over one anchor are combined."""

    on_parallel: str = KEEP_ALL
    alt_confidence_fill: Decimal = Decimal(0)

    def __post_init__(self) -> None:
        if self.on_parallel not in POLICIES:
            raise ValueError(f"unknown policy {self.on_parallel!r}; pick one of {POLICIES}")
        if not (0 <= self.alt_confidence_fill <= 1):
            raise ValueError("alt_confidence_fill must lie in [0, 1]")


# ---------------------------------------------------------------------------
# anchor keys


#: Characters that structure an anchor key, written as ``%XX`` inside ids,
#: landmark ids and node types so that distinct addressing never collides.
_KEY_DELIMITERS = frozenset("%,-&;:()")
_KEY_ESCAPES = str.maketrans({c: f"%{ord(c):02X}" for c in _KEY_DELIMITERS})


def _escape(text: str) -> str:
    # Testing membership first is about twice as fast on ids needing no escape.
    return text if _KEY_DELIMITERS.isdisjoint(text) else text.translate(_KEY_ESCAPES)


def seg_key(seg: SegmentRef) -> str:
    """Canonical string form of one segment's addressing."""
    addr = seg.addr
    if isinstance(addr, IdTargets):
        return "ids:" + ",".join(sorted(map(_escape, addr.ids)))
    if isinstance(addr, PositionalSpan):
        return f"span:{addr.start}-{addr.end}"
    return f"lm:{_escape(addr.start)}-{_escape(addr.end)}"


def anchor_key(node: StructNode) -> Optional[str]:
    """Alignment key for a node, or None when it has no anchor at all.

    A node carrying segments is keyed by them.  Any other node is keyed by
    its type and its children's keys, folded bottom-up on an explicit
    stack, so nesting depth is bounded by memory only.
    """
    segs = sorted(seg_key(item) for item in iter_items(node) if isinstance(item, SegmentRef))
    if segs:
        return "&".join(segs)
    # A frame: a segless node, its children still to key, and the keys so far.
    stack: list[tuple[StructNode, Iterator[StructNode], list[str]]] = [
        (node, iter(node.children), [])
    ]
    while True:
        current, children, keys = stack[-1]
        for child in children:
            if _has_segs(child):
                keys.append(anchor_key(child))
            else:
                stack.append((child, iter(child.children), []))
                break
        else:
            stack.pop()
            key = f"node:{_escape(current.type or '')}:({';'.join(sorted(keys))})" if keys else None
            if not stack:
                return key
            if key is not None:
                stack[-1][2].append(key)


def _addressing_mode(node: StructNode) -> Optional[str]:
    for item in iter_items(node):
        if isinstance(item, SegmentRef):
            return type(item.addr).__name__
    return None


# ---------------------------------------------------------------------------
# merge


def merge(
    docs: list[GmtDocument],
    policy: MergePolicy = MergePolicy(),
    warnings: Optional[list[str]] = None,
) -> GmtDocument:
    """Merge documents of one type into a single document.

    Top-level annotation nodes are grouped by anchor key, in first
    occurrence order; what happens to groups larger than one is the
    policy's call.  When the roots themselves carry segments they are
    aligned as one such group: a single resulting node is the merged
    root, and several become the children of a container root of the
    document type.  Mixed document types and mixed addressing modes for
    one anchor key are errors.
    """
    if not docs:
        raise MergeError("nothing to merge")
    doc_type = docs[0].doc_type
    for doc in docs[1:]:
        if doc.doc_type != doc_type:
            raise MergeError(f"mixed document types: {doc_type!r} and {doc.doc_type!r}")
    roots = [doc.root for doc in docs]
    if any(_has_segs(root) for root in roots):
        # The roots are annotation nodes themselves: align them like any
        # other anchor group rather than treating them as containers.
        merged = _merge_level(roots, policy, warnings)
        if len(merged) == 1:
            return GmtDocument(merged[0])
        return GmtDocument(StructNode(type=doc_type or None, children=tuple(merged)))
    items: list[NodeItem] = []
    seen_item_lists: list[tuple[NodeItem, ...]] = []
    for root in roots:
        if policy.on_parallel == KEEP_ALL or root.items not in seen_item_lists:
            items.extend(root.items)
            seen_item_lists.append(root.items)
    children = _merge_level([child for root in roots for child in root.children], policy, warnings)
    first = roots[0]
    return GmtDocument(
        StructNode(type=first.type, id=first.id, ref=first.ref, items=tuple(items), children=tuple(children))
    )


def _has_segs(node: StructNode) -> bool:
    return any(isinstance(item, SegmentRef) for item in iter_items(node))


def _merge_level(
    nodes: list[StructNode], policy: MergePolicy, warnings: Optional[list[str]]
) -> list[StructNode]:
    groups: dict[str, list[StructNode]] = {}
    order: list[tuple[str, Optional[StructNode]]] = []
    for node in nodes:
        key = anchor_key(node)
        if key is None:
            if warnings is not None:
                warnings.append(
                    f"node of type {node.type!r} has no anchor; kept as-is regardless of policy"
                )
            order.append(("", node))
            continue
        if key not in groups:
            groups[key] = []
            order.append((key, None))
        groups[key].append(node)
    out: list[StructNode] = []
    for key, loose in order:
        if loose is not None:
            out.append(loose)
            continue
        group = groups[key]
        modes = {m for m in (_addressing_mode(n) for n in group) if m is not None}
        if len(modes) > 1:
            raise MergeError(f"anchor {key!r} is addressed through mixed modes: {sorted(modes)}")
        out.extend(_merge_group(group, policy, warnings))
    return out


def _merge_group(
    group: list[StructNode], policy: MergePolicy, warnings: Optional[list[str]]
) -> list[StructNode]:
    if len(group) == 1:
        return group
    if policy.on_parallel == KEEP_ALL:
        return group
    if policy.on_parallel == DEDUP_IDENTICAL:
        distinct: list[StructNode] = []
        for node in group:
            if node not in distinct:
                distinct.append(node)
        return distinct
    return _fold_group(group, policy, warnings)


def _fold_group(
    group: list[StructNode], policy: MergePolicy, warnings: Optional[list[str]]
) -> list[StructNode]:
    if any(node.children for node in group):
        if warnings is not None:
            warnings.append(
                f"cannot fold nodes with children over anchor {anchor_key(group[0])!r}; keeping all"
            )
        return group
    bundles: list[Bundle] = []
    extras: list[Bracket] = []
    for node in group:
        segs: list[SegmentRef] = []
        features: list[Feature] = []
        alt_bundles: list[Bundle] = []
        rest: list[NodeItem] = []
        for item in node.items:
            if isinstance(item, SegmentRef):
                segs.append(item)
            elif isinstance(item, Feature):
                features.append(item)
            elif isinstance(item, AltSet):
                alt_bundles.extend(item.alternatives)
            else:
                rest.append(item)
        if features and alt_bundles:
            if warnings is not None:
                warnings.append(
                    f"cannot fold a node mixing loose features with alternatives over "
                    f"anchor {anchor_key(node)!r}; keeping all"
                )
            return group
        if alt_bundles:
            bundles.extend(alt_bundles)
        else:
            bundles.append(tuple(features))
        if rest:
            # Aggregation: extras stay distinguishable per source node.
            extras.append(Bracket(tuple(rest)))
    bundles = [_fill_confidence(b, policy.alt_confidence_fill) for b in bundles]
    first = group[0]
    anchor_items = tuple(item for item in first.items if isinstance(item, SegmentRef))
    items: tuple[NodeItem, ...] = anchor_items + (AltSet(tuple(bundles)),) + tuple(extras)
    return [StructNode(type=first.type, id=first.id, ref=first.ref, items=items)]


def _fill_confidence(bundle: Bundle, fill: Decimal) -> Bundle:
    has_confidence = any(
        isinstance(member, Feature) and member.cat == CONFIDENCE_CAT for member in bundle
    )
    if has_confidence:
        return bundle
    return bundle + (Feature(cat=CONFIDENCE_CAT, text=str(fill)),)


# ---------------------------------------------------------------------------
# diff


@dataclass(frozen=True)
class DiffEntry:
    anchor: str
    status: str
    detail: str


@dataclass(frozen=True)
class DiffReport:
    """Anchor-aligned comparison of two documents."""

    entries: tuple[DiffEntry, ...]

    @property
    def all_equal(self) -> bool:
        return all(e.status == BOTH_EQUAL for e in self.entries)

    def render(self) -> str:
        """One tab-separated line per entry, ordered by anchor key."""
        return "\n".join(f"{e.status}\t{e.anchor}\t{e.detail}" for e in self.entries)


def diff(left: GmtDocument, right: GmtDocument) -> DiffReport:
    """Compare two documents anchor by anchor.

    Every node carrying a segment reference, at any depth, lands in
    exactly one entry keyed by its anchor.  Feature bundles are compared
    as multisets of (category, value); children are compared
    recursively, except that anchored descendants are judged in their
    own entries.
    """
    left_nodes = _anchored_nodes(left)
    right_nodes = _anchored_nodes(right)
    entries = []
    for key in sorted(set(left_nodes) | set(right_nodes)):
        lhs = left_nodes.get(key, [])
        rhs = right_nodes.get(key, [])
        if not rhs:
            entries.append(DiffEntry(key, ONLY_LEFT, _describe(lhs)))
        elif not lhs:
            entries.append(DiffEntry(key, ONLY_RIGHT, _describe(rhs)))
        elif _bag(map(_fingerprint, lhs)) == _bag(map(_fingerprint, rhs)):
            entries.append(DiffEntry(key, BOTH_EQUAL, ""))
        else:
            entries.append(DiffEntry(key, BOTH_DIFFER, _feature_delta(lhs, rhs)))
    return DiffReport(tuple(entries))


def _anchored_nodes(doc: GmtDocument) -> dict[str, list[StructNode]]:
    found: dict[str, list[StructNode]] = {}
    for _, _, element in walk_elements(doc):
        if isinstance(element, StructNode) and _has_segs(element):
            found.setdefault(anchor_key(element), []).append(element)
    return found


def _bag(values: Iterable[Hashable]) -> frozenset:
    """The multiset of ``values``: equal for equal values in any order."""
    return frozenset(Counter(values).items())


def _fingerprint(node: StructNode) -> tuple:
    """Order-insensitive canonical shape; anchored descendants judged separately."""
    items = []
    for item in iter_items(node):
        if isinstance(item, Feature):
            items.append(_feature_fp(item))
        elif isinstance(item, AltSet):
            bundles = (
                _bag(_feature_fp(m) if isinstance(m, Feature) else _member_fp(m) for m in b)
                for b in item.alternatives
            )
            items.append(("alt", _bag(bundles)))
        elif isinstance(item, Relation):
            items.append(("rel", item.rel_type or "", item.target))
        elif isinstance(item, SegmentRef):
            items.append(("seg", seg_key(item)))
    return (node.type or "", _bag(items), _bag(map(_member_fp, node.children)))


def _member_fp(node: StructNode) -> tuple:
    if _has_segs(node):
        return ("anchored",)
    return _fingerprint(node)


def _feature_fp(feat: Feature) -> tuple:
    if feat.target is not None:
        value: object = ("@", feat.target)
    elif feat.nested is not None:
        value = _bag(map(_feature_fp, feat.nested))
    else:
        value = feat.text or ""
    return ("feat", feat.cat, value)


def _own_features(nodes: list[StructNode]) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for node in nodes:
        for item in iter_items(node):
            if isinstance(item, Feature) and item.text is not None:
                pair = (item.cat, item.text)
                counts[pair] = counts.get(pair, 0) + 1
    return counts


def _feature_delta(lhs: list[StructNode], rhs: list[StructNode]) -> str:
    left, right = _own_features(lhs), _own_features(rhs)
    removed = sorted(p for p in left if left[p] > right.get(p, 0))
    added = sorted(p for p in right if right[p] > left.get(p, 0))
    parts = []
    added_by_cat: dict[str, list[str]] = {}
    for cat, value in added:
        added_by_cat.setdefault(cat, []).append(value)
    for cat, value in removed:
        if cat in added_by_cat and added_by_cat[cat]:
            parts.append(f"{cat}:{value}->{added_by_cat[cat].pop(0)}")
        else:
            parts.append(f"{cat}:-{value}")
    for cat, values in added_by_cat.items():
        parts.extend(f"{cat}:+{value}" for value in values)
    if not parts:
        parts.append("structure differs")
    if len(lhs) != len(rhs):
        parts.append(f"count:{len(lhs)}!={len(rhs)}")
    return " ".join(parts)


def _describe(nodes: list[StructNode]) -> str:
    types = sorted({n.type or "" for n in nodes})
    return f"{len(nodes)} node(s) of type {', '.join(types)}"
