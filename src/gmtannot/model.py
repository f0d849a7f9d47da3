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

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, TypeVar, Union

if TYPE_CHECKING:  # decimal is imported where a decimal is read or built: most commands read none
    from decimal import Decimal

ERROR = "error"
WARNING = "warning"

#: Data category consulted by alternative selection.
CONFIDENCE_CAT = "confidence"

R = TypeVar("R", bound="Record")


#: Writes a slot of a record, which refuses assignment: for constructors and caches.
_set = object.__setattr__


class Record:
    """Base of the immutable value records.

    A subclass lists its fields in ``__slots__`` in ``__init__`` order and
    writes each with ``_set``.  Slots named with a leading ``_`` hold caches,
    which ``==``, ``hash``, ``repr``, pickling and :func:`replace` ignore.
    Records are equal when of the same class and with equal fields.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # A C getter: with a getattr loop, ``node not in distinct`` doubles a dedup merge's time.
        key = attrgetter(*fields) if fields else lambda record: ()

        def __eq__(self: Record, other: object) -> Any:
            return key(self) == key(other) if type(other) is type(self) else NotImplemented

        cls.__eq__ = __eq__  # type: ignore[method-assign]
        cls.__hash__ = lambda self: hash(key(self))  # type: ignore[method-assign]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        # A loop, not a comprehension, so that a deep tree adds one frame per level.
        parts = []
        for name in self._fields:
            parts.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__qualname__}({', '.join(parts)})"

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self._fields])


def replace(value: R, **changes: Any) -> R:
    """A copy of the record ``value`` with the named fields changed; an unknown name is a TypeError."""
    fields = {name: getattr(value, name) for name in value._fields}
    fields.update(changes)
    return type(value)(**fields)


class Feature(Record):
    """One information unit: a data category name plus a value.

    Exactly one of ``text``, ``nested`` or ``target`` should be populated;
    ``text`` holds a literal value, ``nested`` a complex feature structure,
    and ``target`` a pointer to an object that provides the value.
    """
    __slots__ = ("cat", "text", "nested", "target")

    def __init__(
        self,
        cat: str,
        text: Optional[str] = None,
        nested: Optional[tuple[Feature, ...]] = None,
        target: Optional[str] = None,
    ) -> None:
        _set(self, "cat", cat)
        _set(self, "text", text)
        _set(self, "nested", nested)
        _set(self, "target", target)


def _leaf(leaves: dict[tuple[str, str], Feature], cat: str, text: str) -> Feature:
    """The text feature ``(cat, text)`` in ``leaves``, added at its first use: equal leaves become one object."""
    return leaves.get((cat, text)) or leaves.setdefault((cat, text), Feature(cat=cat, text=text))


#: One alternative reading: features, plus nested nodes for structural
#: alternatives (accepted on import, opaque to selection).
Bundle = tuple[Union[Feature, "StructNode"], ...]


class AltSet(Record):
    """A set of mutually exclusive alternative annotations."""
    __slots__ = ("alternatives",)

    def __init__(self, alternatives: tuple[Bundle, ...]) -> None:
        _set(self, "alternatives", alternatives)


class Relation(Record):
    """A directional pointer to a related node (this node -> target)."""
    __slots__ = ("target", "rel_type")

    def __init__(self, target: str, rel_type: Optional[str] = None) -> None:
        _set(self, "target", target)
        _set(self, "rel_type", rel_type)


class IdTargets(Record):
    """Addressing by identifier: one or more token or node ids."""
    __slots__ = ("ids",)

    def __init__(self, ids: tuple[str, ...]) -> None:
        _set(self, "ids", ids)


class PositionalSpan(Record):
    """Addressing by explicit start/end offsets in the primary data."""
    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        _set(self, "start", start)
        _set(self, "end", end)


class LandmarkEndpoints(Record):
    """Addressing by a pair of landmark node identifiers."""
    __slots__ = ("start", "end")

    def __init__(self, start: str, end: str) -> None:
        _set(self, "start", start)
        _set(self, "end", end)


Addressing = Union[IdTargets, PositionalSpan, LandmarkEndpoints]


class SegmentRef(Record):
    """A pointer to the data the enclosing node annotates."""
    __slots__ = ("addr",)

    def __init__(self, addr: Addressing) -> None:
        _set(self, "addr", addr)


class Bracket(Record):
    """An ordered grouping of items to be regarded as a unit."""
    __slots__ = ("members",)

    def __init__(self, members: tuple[NodeItem, ...]) -> None:
        _set(self, "members", members)


NodeItem = Union[Feature, AltSet, Relation, SegmentRef, Bracket]


class StructNode(Record):
    """A structural node of the annotation; may nest recursively."""
    __slots__ = ("type", "id", "ref", "items", "children")

    def __init__(
        self,
        type: Optional[str] = None,
        id: Optional[str] = None,
        ref: Optional[str] = None,
        items: tuple[NodeItem, ...] = (),
        children: tuple[StructNode, ...] = (),
    ) -> None:
        _set(self, "type", type)
        _set(self, "id", id)
        _set(self, "ref", ref)
        _set(self, "items", items)
        _set(self, "children", children)


class GmtDocument(Record):
    """One stand-off annotation layer: the tree under a single root node."""
    __slots__ = ("root", "_node_index", "_child_keys")

    def __init__(self, root: StructNode) -> None:
        _set(self, "root", root)

    @property
    def doc_type(self) -> str:
        """The document type, which is the root's type ("" for an untyped root)."""
        return self.root.type or ""

    @property
    def roots(self) -> tuple[StructNode, ...]:
        """``(root,)``, for callers written against the earlier tuple of roots."""
        return (self.root,)

    def walk(self) -> Iterator[tuple[str, StructNode]]:
        """An iterator over the list of ``(path, node)`` for every node, in document order.

        Nodes nested inside alternative bundles are included, so the walk
        covers every node that can carry an id.  The list is built in full by
        the validators' walk, :func:`_validate`, and :func:`_render` names
        each node, so the cost stays linear in the paths' length.
        """
        walked: list[tuple[str, StructNode]] = []
        _validate(self, False, None, lambda frame, index, node: walked.append((_render(frame, index), node)))
        return iter(walked)


_TAGS = {StructNode: "struct", Feature: "feat", Relation: "rel", SegmentRef: "seg", Bracket: "brack", AltSet: "alt"}


def _nodes(doc: GmtDocument) -> Iterator[StructNode]:
    """Every node in the document order of ``docs/formats.md``, without paths, as :meth:`GmtDocument.walk` yields them."""
    stack: list = [doc.root]
    while stack:
        element = stack.pop()
        kind = type(element)
        if kind is StructNode:
            yield element
            stack += reversed(element.items + element.children)
        elif kind is AltSet or kind is Bracket or kind is Feature and element.nested:
            stack += reversed(element.nested if kind is Feature else element.members if kind is Bracket
                              else [member for bundle in element.alternatives for member in bundle])


def iter_items(node: StructNode) -> tuple[NodeItem, ...]:
    """The node's items, each bracket followed by its members: ``node.items`` itself when it has no bracket."""
    # Tested here as well: a call per node would cost diff, which asks once per node, about 2%.
    return _flatten(node.items) if Bracket in map(type, node.items) else node.items


def _flatten(members: tuple) -> tuple:
    """The members, each bracket followed by its members: ``members`` itself when there is no bracket."""
    if Bracket not in map(type, members):
        return members
    items, stack = [], list(reversed(members))
    while stack:
        items.append(stack.pop())
        stack.extend(reversed(items[-1].members) if isinstance(items[-1], Bracket) else ())
    return tuple(items)


class Finding(Record):
    """A single validation result."""
    __slots__ = ("severity", "code", "path", "message")

    def __init__(self, severity: str, code: str, path: str, message: str) -> None:
        _set(self, "severity", severity)
        _set(self, "code", code)
        _set(self, "path", path)
        _set(self, "message", message)


class ValidationReport(Record):
    """Ordered list of findings; an empty report means the document is valid."""
    __slots__ = ("findings",)

    def __init__(self, findings: tuple[Finding, ...] = ()) -> None:
        _set(self, "findings", findings)

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def ok(self) -> bool:
        """True when the report carries no error-severity findings."""
        return not self.errors

    def render(self) -> str:
        """One tab-separated line per finding."""
        return "\n".join(
            f"{f.severity.upper()}\t{f.code}\t{f.path}\t{f.message}" for f in self.findings
        )


def validate_structure(doc: GmtDocument) -> ValidationReport:
    """Check the structural invariants of a document.

    Every violation becomes one finding; findings are ordered by document
    position.  The checks are purely structural; data category semantics
    are validated separately against a registry.
    """
    return ValidationReport(tuple(_validate(doc, True, None)[0]))


def _validate(
    doc: GmtDocument, structure: bool, check: Optional[Callable], visit: Optional[Callable] = None
) -> tuple[list[Finding], list[Finding]]:
    """The structure findings (if ``structure``) and the findings of ``check``, from one walk.

    ``check`` takes a feature and returns its ``(code, message)``, or None; it sees each distinct feature at
    least once, nested and bundled ones included.  ``visit`` gets ``(frame, index, node)`` once per node.
    The walk goes in document order ("Element paths" in ``docs/formats.md``) and builds no paths:
    a frame records the member it descends into, and :func:`_render` names findings and visited nodes.
    """
    findings: tuple[list[Finding], list[Finding]] = ([], [])
    seen_ids: set[str] = set()
    # Each feature's problems by id(feature), in a table of their own for the members of alternative bundles,
    # whose confidence is checked.  The document keeps each feature alive, so no id is reused during the call.
    plain: dict[int, tuple] = {}
    bundled: dict[int, tuple] = {}
    # One frame per open owner: [(index, member) iterator, members, parent frame, the owner's index among the
    # parent's members, its <alt> offset there, feature memo, _render's state or None].
    stack = [[enumerate((doc.root,)), (doc.root,), None, 0, 0, plain, ["", 0, {}]]]
    while stack:
        frame = stack[-1]
        memo = frame[5]
        for i, member in frame[0]:
            kind = type(member)
            if kind is Feature:
                found = memo.get(id(member))
                if found is None:
                    found = _problems(member, memo is bundled) if structure else ()
                    problem = check and check(member)
                    found = memo[id(member)] = found + ((1, *problem),) if problem else found
                inner = member.nested
            elif kind is StructNode:
                if visit is not None:
                    visit(frame, i, member)
                found = structure and member.id is not None and _id_problems(member.id, seen_ids)
                inner = member.items + member.children
            else:
                # A segment with a single id is always well formed.
                single = kind is SegmentRef and type(member.addr) is IdTargets and len(member.addr.ids) == 1
                found = structure and not single and _problems(member, False)
                inner = member.members if kind is Bracket else None
            if found:
                path = _render(frame, i)
                for which, code, message in found:
                    findings[which].append(Finding(ERROR, code, path, message))
            if inner:
                stack.append([enumerate(inner), inner, frame, i, 0, plain, [path, 0, {}] if found else None])
                break
            if kind is AltSet:
                for k in range(len(member.alternatives) - 1, -1, -1):
                    bundle = member.alternatives[k]
                    stack.append([enumerate(bundle), bundle, frame, i, k, bundled, None])
                break
        else:
            stack.pop()
    return findings


def _problems(element: Union[Feature, NodeItem], in_bundle: bool) -> tuple[tuple[int, str, str], ...]:
    """``(0, code, message)`` per structure problem of a feature or item, other than a bracket or node."""
    problems = []
    kind = type(element)
    if kind is Feature:
        forms = (element.text is not None) + (element.nested is not None) + (element.target is not None)
        if forms > 1:
            problems.append((0, "FEATURE_MULTIPLE_VALUES", f"feature '{element.cat}' carries more than one value form"))
        elif forms == 0 or element.nested == ():
            # An empty nested tuple carries no value either; refusing it
            # here keeps serialization round-trippable.
            problems.append((0, "FEATURE_NO_VALUE", f"feature '{element.cat}' carries no value"))
        if in_bundle and element.cat == CONFIDENCE_CAT:
            value = _finite_decimal(element.text)
            if value is None or not 0 <= value <= 1:
                message = f"confidence value {element.text!r} is not a decimal in [0, 1]"
                problems.append((0, "BAD_CONFIDENCE", message))
    elif kind is AltSet and len(element.alternatives) < 2:
        message = f"alternative set has {len(element.alternatives)} alternative(s), needs at least 2"
        problems.append((0, "SINGLETON_ALT", message))
    elif kind is Relation and not element.target:
        problems.append((0, "EMPTY_TARGET", "relation target must be non-empty"))
    elif kind is SegmentRef and type(element.addr) is IdTargets:
        ids = element.addr.ids
        if not ids:
            problems.append((0, "EMPTY_TARGETS", "segment reference names no targets"))
        seen: set[str] = set()
        for t in ids:
            if t in seen:
                problems.append((0, "DUPLICATE_TARGET", f"duplicate target '{t}'"))
            if len(ids) > 1 and (t.split() != [t] or t.startswith("#")):
                problems.append((0, "BAD_TARGET", f"target {t!r} cannot stand in a whitespace-separated list"))
            seen.add(t)
    elif kind is SegmentRef and type(element.addr) is PositionalSpan:
        start, end = element.addr.start, element.addr.end
        if start < 0 or end < 0:
            problems.append((0, "NEGATIVE_OFFSET", f"offsets must be non-negative, got {start}..{end}"))
        elif start > end:
            problems.append((0, "INVERTED_SPAN", f"span starts at {start} after its end {end}"))
    return tuple(problems)


def _id_problems(node_id: str, seen: set[str]) -> tuple[tuple[int, str, str], ...]:
    """``(0, code, message)`` if a node id is empty or among the ``seen`` ids of the walk, to which it is added."""
    found = ((0, "EMPTY_ID", "node id must be non-empty"),) if not node_id else (
        ((0, "DUPLICATE_ID", f"duplicate node id '{node_id}'"),) if node_id in seen else ())
    seen.add(node_id)
    return found


def _render(frame: list, index: int, offset: int = 0) -> str:
    """The path of member ``index`` of an open frame, by the rules of "Element paths" in ``docs/formats.md``.

    ``offset`` counts the ``<alt>`` elements of the member's set before the one asked for.  A frame's state,
    made when its owner is first named, is ``[its owner's path, a cursor, the per-tag counts of the members
    before the cursor]``.  Paths are asked for in document order, so each cursor only moves forward, and all
    paths together cost time linear in the document and their length.
    """
    if frame[6] is None:
        # Name this frame and its unnamed ancestors from the top down, so each call below finds its frame named.
        unnamed, owner = [], frame
        while owner[6] is None:
            unnamed.append(owner)
            owner = owner[2]
        for child in reversed(unnamed):
            child[6] = [_render(child[2], child[3], child[4]), 0, {}]
    prefix, cursor, counts = state = frame[6]
    for member in frame[1][cursor:index]:
        tag = _TAGS[type(member)]
        counts[tag] = counts.get(tag, 0) + (len(member.alternatives) if tag == "alt" else 1)
    state[1] = index
    tag = _TAGS[type(frame[1][index])]
    return f"{prefix}/{tag}[{counts.get(tag, 0) + 1 + offset}]"


def find_node(doc: GmtDocument, node_id: str) -> Optional[StructNode]:
    """Return the first node with the given id in document order (see ``docs/formats.md``), or None.

    The first call indexes every node id with one walk and caches the index
    on the document; documents are immutable, so it never goes stale, and
    each later lookup costs O(1).
    """
    try:
        index = doc._node_index
    except AttributeError:
        index = {}
        for node in _nodes(doc):
            index.setdefault(node.id, node)
        _set(doc, "_node_index", index)
    return index.get(node_id)


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(number, line)`` for each line of a line format, after one leading byte order mark, that is neither blank
    nor a ``#`` comment."""
    lines = text.removeprefix("\ufeff").splitlines()
    return ((n, line) for n, line in enumerate(lines, start=1) if line.lstrip()[:1] not in ("", "#"))


def _decimal(text: str) -> Optional[Decimal]:
    """The decimal, infinities included, spelled by ``text`` in ASCII without ``_`` (which ``Decimal`` would take
    between digits) and with surrounding blanks ignored; None for a NaN or for text that is not a decimal."""
    import decimal  # not ``from decimal import``, which takes about a microsecond more per call

    text = text.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        return None
    return None if value.is_nan() else value


def _integer(text: str) -> Optional[int]:
    """The integer, sign allowed, spelled by ``text`` in ASCII digits without ``_`` and with surrounding blanks
    ignored; None for other text, including digit strings past ``int``'s conversion limit."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _finite_decimal(text: Optional[str]) -> Optional[Decimal]:
    """The finite decimal spelled by ``text`` (surrounding blanks ignored), or None."""
    value = None if text is None else _decimal(text)
    return value if value is not None and value.is_finite() else None


def bundle_confidence(bundle: Bundle) -> Decimal:
    """The bundle's confidence; missing, unparseable or non-finite values count as 0."""
    import decimal

    for member in bundle:
        if isinstance(member, Feature) and member.cat == CONFIDENCE_CAT:
            value = _finite_decimal(member.text)
            return decimal.Decimal(0) if value is None else value
    return decimal.Decimal(0)


def select_preferred_alternative(alts: AltSet) -> Bundle:
    """The alternative with the greatest confidence; first one wins ties.

    Confidence values are compared as exact decimals, as written: one outside
    [0, 1] is not clamped, only reported by :func:`validate_structure`.
    Bundles without a confidence feature count as 0.  Selection is total:
    some bundle is always returned for a non-empty set.
    """
    if not alts.alternatives:
        raise ValueError("empty alternative set")
    # max keeps the first of equal maxima.
    return max(alts.alternatives, key=bundle_confidence)
