"""In-memory model for GMT stand-off annotation documents.

A document is a tree of structural nodes (``<struct>`` in the XML form).
Each node carries an ordered list of information items: features, alternative
sets, relations, segment references and brackets.  All values are immutable
after construction and compare structurally, so documents can be shared
freely across threads and tested for equality directly.

The model is deliberately permissive: invariants are not enforced by the
constructors but reported by :func:`validate_structure`, which turns every
violation into a finding instead of an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Iterator, Optional, Union

ERROR = "error"
WARNING = "warning"

#: Data category consulted by alternative selection.
CONFIDENCE_CAT = "confidence"


@dataclass(frozen=True)
class Feature:
    """One information unit: a data category name plus a value.

    Exactly one of ``text``, ``nested`` or ``target`` should be populated;
    ``text`` holds a literal value, ``nested`` a complex feature structure,
    and ``target`` a pointer to an object that provides the value.
    """

    cat: str
    text: Optional[str] = None
    nested: Optional[tuple["Feature", ...]] = None
    target: Optional[str] = None


#: One alternative reading: features, plus nested nodes for structural
#: alternatives (accepted on import, opaque to selection).
Bundle = tuple[Union[Feature, "StructNode"], ...]


@dataclass(frozen=True)
class AltSet:
    """A set of mutually exclusive alternative annotations."""

    alternatives: tuple[Bundle, ...]


@dataclass(frozen=True)
class Relation:
    """A directional pointer to a related node (this node -> target)."""

    target: str
    rel_type: Optional[str] = None


@dataclass(frozen=True)
class IdTargets:
    """Addressing by identifier: one or more token or node ids."""

    ids: tuple[str, ...]


@dataclass(frozen=True)
class PositionalSpan:
    """Addressing by explicit start/end offsets in the primary data."""

    start: int
    end: int


@dataclass(frozen=True)
class LandmarkEndpoints:
    """Addressing by a pair of landmark node identifiers."""

    start: str
    end: str


Addressing = Union[IdTargets, PositionalSpan, LandmarkEndpoints]


@dataclass(frozen=True)
class SegmentRef:
    """A pointer to the data the enclosing node annotates."""

    addr: Addressing


@dataclass(frozen=True)
class Bracket:
    """An ordered grouping of items to be regarded as a unit."""

    members: tuple["NodeItem", ...]


NodeItem = Union[Feature, AltSet, Relation, SegmentRef, Bracket]


@dataclass(frozen=True)
class StructNode:
    """A structural node of the annotation; may nest recursively."""

    type: Optional[str] = None
    id: Optional[str] = None
    ref: Optional[str] = None
    items: tuple[NodeItem, ...] = ()
    children: tuple["StructNode", ...] = ()


@dataclass(frozen=True)
class GmtDocument:
    """Root of one stand-off annotation layer."""

    doc_type: str = ""
    roots: tuple[StructNode, ...] = ()

    @classmethod
    def from_root(cls, root: StructNode) -> "GmtDocument":
        """Wrap a single node, taking the document type from it."""
        return cls(doc_type=root.type or "", roots=(root,))

    @property
    def root(self) -> StructNode:
        """The unique root node; raises if the document has none or many."""
        if len(self.roots) != 1:
            raise ValueError(f"document has {len(self.roots)} roots, expected exactly 1")
        return self.roots[0]

    def walk(self) -> Iterator[tuple[str, StructNode]]:
        """Yield ``(path, node)`` for every node in document order.

        Nodes nested inside alternative bundles are included, so the walk
        covers every node that can carry an id.
        """
        for i, root in enumerate(self.roots):
            yield from _walk_node(f"/struct[{i + 1}]", root)


def _walk_node(path: str, node: StructNode) -> Iterator[tuple[str, StructNode]]:
    yield path, node
    alt_pos = 0
    for item in node.items:
        if isinstance(item, AltSet):
            for bundle in item.alternatives:
                alt_pos += 1
                struct_pos = 0
                for member in bundle:
                    if isinstance(member, StructNode):
                        struct_pos += 1
                        yield from _walk_node(
                            f"{path}/alt[{alt_pos}]/struct[{struct_pos}]", member
                        )
    for j, child in enumerate(node.children):
        yield from _walk_node(f"{path}/struct[{j + 1}]", child)


def iter_items(node: StructNode) -> Iterator[NodeItem]:
    """Yield the node's items, descending through brackets."""
    stack: list[NodeItem] = list(reversed(node.items))
    while stack:
        item = stack.pop()
        yield item
        if isinstance(item, Bracket):
            stack.extend(reversed(item.members))


@dataclass(frozen=True)
class Finding:
    """A single validation result."""

    severity: str
    code: str
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Ordered list of findings; an empty report means the document is valid."""

    findings: tuple[Finding, ...] = ()

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def is_empty(self) -> bool:
        return not self.findings

    @property
    def ok(self) -> bool:
        """True when the report carries no error-severity findings."""
        return not self.errors

    def render(self) -> str:
        """One tab-separated line per finding."""
        return "\n".join(
            f"{f.severity.upper()}\t{f.code}\t{f.path}\t{f.message}" for f in self.findings
        )


class _ReportBuilder:
    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def add(self, severity: str, code: str, path: str, message: str) -> None:
        self.findings.append(Finding(severity, code, path, message))

    def done(self) -> ValidationReport:
        return ValidationReport(tuple(self.findings))


def validate_structure(doc: GmtDocument) -> ValidationReport:
    """Check the structural invariants of a document.

    Every violation becomes one finding; findings are ordered by document
    position.  The checks are purely structural; data category semantics
    are validated separately against a registry.
    """
    out = _ReportBuilder()
    if doc.roots and doc.roots[0].type and doc.doc_type and doc.roots[0].type != doc.doc_type:
        out.add(
            WARNING,
            "DOCTYPE_MISMATCH",
            "/struct[1]",
            f"document type '{doc.doc_type}' differs from root type '{doc.roots[0].type}'",
        )
    seen_ids: set[str] = set()
    for path, node in doc.walk():
        if node.id is not None:
            if node.id == "":
                out.add(ERROR, "EMPTY_ID", path, "node id must be non-empty")
            elif node.id in seen_ids:
                out.add(ERROR, "DUPLICATE_ID", path, f"duplicate node id '{node.id}'")
            else:
                seen_ids.add(node.id)
        _check_items(node, path, out)
    return out.done()


def _check_items(node: StructNode, path: str, out: _ReportBuilder) -> None:
    counts: dict[str, int] = {}

    def tag_path(tag: str) -> str:
        counts[tag] = counts.get(tag, 0) + 1
        return f"{path}/{tag}[{counts[tag]}]"

    alt_pos = 0
    for item in node.items:
        if isinstance(item, Feature):
            _check_feature(item, tag_path("feat"), out)
        elif isinstance(item, AltSet):
            if len(item.alternatives) < 2:
                out.add(
                    ERROR,
                    "SINGLETON_ALT",
                    f"{path}/alt[{alt_pos + 1}]",
                    f"alternative set has {len(item.alternatives)} alternative(s), needs at least 2",
                )
            for bundle in item.alternatives:
                alt_pos += 1
                counts["alt"] = alt_pos
                _check_bundle(bundle, f"{path}/alt[{alt_pos}]", out)
        elif isinstance(item, Relation):
            if not item.target:
                out.add(ERROR, "EMPTY_TARGET", tag_path("rel"), "relation target must be non-empty")
            else:
                tag_path("rel")
        elif isinstance(item, SegmentRef):
            _check_seg(item, tag_path("seg"), out)
        elif isinstance(item, Bracket):
            _check_bracket(item, tag_path("brack"), out)


def _check_feature(feat: Feature, path: str, out: _ReportBuilder) -> None:
    # An empty nested tuple carries no value either; refusing it here keeps
    # serialization round-trippable.
    populated = sum(v is not None for v in (feat.text, feat.nested or None, feat.target))
    if populated == 0:
        out.add(ERROR, "FEATURE_NO_VALUE", path, f"feature '{feat.cat}' carries no value")
    elif populated > 1:
        out.add(
            ERROR,
            "FEATURE_MULTIPLE_VALUES",
            path,
            f"feature '{feat.cat}' carries more than one value form",
        )
    counts = 0
    for sub in feat.nested or ():
        counts += 1
        _check_feature(sub, f"{path}/feat[{counts}]", out)


def _check_bundle(bundle: Bundle, path: str, out: _ReportBuilder) -> None:
    counts: dict[str, int] = {}
    for member in bundle:
        tag = "feat" if isinstance(member, Feature) else "struct"
        counts[tag] = counts.get(tag, 0) + 1
        member_path = f"{path}/{tag}[{counts[tag]}]"
        if isinstance(member, Feature):
            _check_feature(member, member_path, out)
            if member.cat == CONFIDENCE_CAT and _parse_confidence(member) is None:
                out.add(
                    ERROR,
                    "BAD_CONFIDENCE",
                    member_path,
                    f"confidence value {member.text!r} is not a decimal in [0, 1]",
                )
        else:
            _check_items(member, member_path, out)


def _check_seg(seg: SegmentRef, path: str, out: _ReportBuilder) -> None:
    addr = seg.addr
    if isinstance(addr, IdTargets):
        if not addr.ids:
            out.add(ERROR, "EMPTY_TARGETS", path, "segment reference names no targets")
        seen: set[str] = set()
        for t in addr.ids:
            if t in seen:
                out.add(ERROR, "DUPLICATE_TARGET", path, f"duplicate target '{t}'")
            seen.add(t)
    elif isinstance(addr, PositionalSpan):
        if addr.start < 0 or addr.end < 0:
            out.add(ERROR, "NEGATIVE_OFFSET", path, f"offsets must be non-negative, got {addr.start}..{addr.end}")
        elif addr.start > addr.end:
            out.add(ERROR, "INVERTED_SPAN", path, f"span starts at {addr.start} after its end {addr.end}")


def _check_bracket(brack: Bracket, path: str, out: _ReportBuilder) -> None:
    counts: dict[str, int] = {}
    alt_pos = 0
    for member in brack.members:
        if isinstance(member, Feature):
            counts["feat"] = counts.get("feat", 0) + 1
            _check_feature(member, f"{path}/feat[{counts['feat']}]", out)
        elif isinstance(member, AltSet):
            if len(member.alternatives) < 2:
                out.add(
                    ERROR,
                    "SINGLETON_ALT",
                    f"{path}/alt[{alt_pos + 1}]",
                    f"alternative set has {len(member.alternatives)} alternative(s), needs at least 2",
                )
            for bundle in member.alternatives:
                alt_pos += 1
                _check_bundle(bundle, f"{path}/alt[{alt_pos}]", out)
        elif isinstance(member, Relation):
            counts["rel"] = counts.get("rel", 0) + 1
            if not member.target:
                out.add(ERROR, "EMPTY_TARGET", f"{path}/rel[{counts['rel']}]", "relation target must be non-empty")
        elif isinstance(member, SegmentRef):
            counts["seg"] = counts.get("seg", 0) + 1
            _check_seg(member, f"{path}/seg[{counts['seg']}]", out)
        elif isinstance(member, Bracket):
            counts["brack"] = counts.get("brack", 0) + 1
            _check_bracket(member, f"{path}/brack[{counts['brack']}]", out)


def find_node(doc: GmtDocument, node_id: str) -> Optional[StructNode]:
    """Return the first node in :meth:`GmtDocument.walk` order with the given id, or None.

    The first call indexes every node id with one walk and caches the index
    on the document; documents are immutable, so it never goes stale, and
    each later lookup costs O(1).
    """
    try:
        index = doc._node_index  # type: ignore[attr-defined]
    except AttributeError:
        index = {}
        for _, node in doc.walk():
            index.setdefault(node.id, node)
        # Not a dataclass field, so equality, hashing and repr ignore it.
        object.__setattr__(doc, "_node_index", index)
    return index.get(node_id)


def collect_referenced_ids(doc: GmtDocument) -> set[str]:
    """Every identifier referenced anywhere in the document.

    Covers segment targets, landmark endpoints, relation targets,
    feature targets and node ``ref`` attributes.
    """
    refs: set[str] = set()

    def from_feature(feat: Feature) -> None:
        if feat.target is not None:
            refs.add(feat.target)
        for sub in feat.nested or ():
            from_feature(sub)

    def from_item(item: NodeItem) -> None:
        if isinstance(item, Feature):
            from_feature(item)
        elif isinstance(item, AltSet):
            for bundle in item.alternatives:
                for member in bundle:
                    if isinstance(member, Feature):
                        from_feature(member)
                    else:
                        from_node(member)
        elif isinstance(item, Relation):
            refs.add(item.target)
        elif isinstance(item, SegmentRef):
            addr = item.addr
            if isinstance(addr, IdTargets):
                refs.update(addr.ids)
            elif isinstance(addr, LandmarkEndpoints):
                refs.add(addr.start)
                refs.add(addr.end)
        elif isinstance(item, Bracket):
            for member in item.members:
                from_item(member)

    def from_node(node: StructNode) -> None:
        if node.ref is not None:
            refs.add(node.ref)
        for item in node.items:
            from_item(item)
        for child in node.children:
            from_node(child)

    for root in doc.roots:
        from_node(root)
    return refs


def _parse_confidence(feat: Feature) -> Optional[Decimal]:
    """Decimal in [0, 1] from a confidence feature, or None."""
    if feat.text is None:
        return None
    try:
        value = Decimal(feat.text.strip())
    except InvalidOperation:
        return None
    if not value.is_finite() or value < 0 or value > 1:
        return None
    return value


def bundle_confidence(bundle: Bundle) -> Decimal:
    """The bundle's confidence; missing, unparseable or non-finite values count as 0."""
    for member in bundle:
        if isinstance(member, Feature) and member.cat == CONFIDENCE_CAT:
            if member.text is None:
                return Decimal(0)
            try:
                value = Decimal(member.text.strip())
            except InvalidOperation:
                return Decimal(0)
            return value if value.is_finite() else Decimal(0)
    return Decimal(0)


def select_preferred_alternative(alts: AltSet) -> Bundle:
    """The alternative with the greatest confidence; first one wins ties.

    Confidence values are compared as exact decimals; bundles without a
    confidence feature count as 0.  Selection is total: some bundle is
    always returned for a non-empty set.
    """
    if not alts.alternatives:
        raise ValueError("empty alternative set")
    best = alts.alternatives[0]
    best_conf = bundle_confidence(best)
    for bundle in alts.alternatives[1:]:
        conf = bundle_confidence(bundle)
        if conf > best_conf:
            best, best_conf = bundle, conf
    return best
