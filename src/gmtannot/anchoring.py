"""Resolution of segment references against primary data.

Three anchoring mechanisms are supported:

* temporal: explicit start/end offsets resolve to themselves, and a start
  after its end is refused as an inverted span;
* event-based: landmark identifiers resolve through a landmark table
  built from a landmark description document;
* object-based: identifier targets resolve either to token spans of the
  primary text (through a token index) or to nodes of another annotation
  layer.

Offsets are opaque integers; the library never converts between time
and character units.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import AnchorError, InvertedSpanError, TokenIndexError, UnresolvedTargetError
from .model import (
    Addressing,
    Feature,
    GmtDocument,
    IdTargets,
    PositionalSpan,
    Record,
    SegmentRef,
    StructNode,
    _data_lines,
    _integer,
    _nodes,
    _set,
    find_node,
    iter_items,
)

#: Source marker for spans located directly in the primary data.
PRIMARY = "primary"

#: Node type that marks a landmark description entry.
LANDMARK_TYPE = "landmark"

#: Data category holding a landmark's position.
POSITION_CAT = "position"


class Token(Record):
    """One entry of a token index: the token's id and its character span."""
    __slots__ = ("id", "start", "end")

    def __init__(self, id: str, start: int, end: int) -> None:
        _set(self, "id", id)
        _set(self, "start", start)
        _set(self, "end", end)


class TokenIndex(Record):
    """Sidecar index mapping token ids to character spans of a text."""
    __slots__ = ("entries", "_by_id")

    def __init__(self, entries: tuple[Token, ...]) -> None:
        seen: set[str] = set()
        for token in entries:
            if token.start < 0 or token.end < 0:
                raise TokenIndexError(f"token '{token.id}' has a negative offset")
            if token.start > token.end:
                raise TokenIndexError(f"token '{token.id}' starts after it ends")
            if token.id in seen:
                raise TokenIndexError(f"duplicate token id '{token.id}'")
            seen.add(token.id)
        _set(self, "entries", entries)
        _set(self, "_by_id", {t.id: t for t in entries})

    def get(self, token_id: str) -> Optional[Token]:
        return self._by_id.get(token_id)

    def __contains__(self, token_id: str) -> bool:
        return token_id in self._by_id


def load_token_index(text: str) -> TokenIndex:
    """Read the tab-separated token index format.

    One entry per line: ``tokenId<TAB>start<TAB>end``; ``#`` starts a
    comment line; blank lines are ignored.
    """
    entries = []
    for lineno, line in _data_lines(text):
        parts = line.split("\t")
        if len(parts) != 3:
            raise TokenIndexError("expected 'tokenId<TAB>start<TAB>end'", lineno)
        token_id, start_raw, end_raw = (p.strip() for p in parts)
        start, end = _integer(start_raw), _integer(end_raw)
        if start is None or end is None:
            raise TokenIndexError("offsets must be integers", lineno)
        if not token_id:
            raise TokenIndexError("empty token id", lineno)
        entries.append(Token(token_id, start, end))
    return TokenIndex(tuple(entries))


def tokenize_whitespace(text: str, prefix: str = "w") -> TokenIndex:
    """Build a token index by whitespace tokenization of a text.

    Tokens are numbered ``w1, w2, ...`` in order; spans are character
    offsets with an exclusive end, non-overlapping and ordered.
    """
    entries = []
    offset = 0
    number = 0
    for chunk in text.split():
        start = text.index(chunk, offset)
        number += 1
        entries.append(Token(f"{prefix}{number}", start, start + len(chunk)))
        offset = start + len(chunk)
    return TokenIndex(tuple(entries))


#: Landmark id -> position, in time or offset units.
LandmarkTable = dict[str, int]


def build_landmark_table(doc: GmtDocument) -> LandmarkTable:
    """Collect id -> position from every landmark-typed node.

    Non-landmark nodes are ignored.  A landmark without an id or a
    position feature, or with a position that is not a non-negative
    integer, is an error.
    """
    table: LandmarkTable = {}
    for count, node in enumerate(_nodes(doc), 1):
        if node.type != LANDMARK_TYPE:
            continue
        if node.id is None:
            raise AnchorError(f"landmark at {_node_path(doc, count)} has no id")
        position = None
        for item in iter_items(node):
            if isinstance(item, Feature) and item.cat == POSITION_CAT and item.text is not None:
                position = item.text.strip()
                break
        if position is None:
            raise AnchorError(f"landmark '{node.id}' at {_node_path(doc, count)} has no position feature")
        value = _integer(position)
        if value is None:
            raise AnchorError(
                f"landmark '{node.id}' at {_node_path(doc, count)}: position {position!r} is not an integer"
            )
        if value < 0:
            raise AnchorError(f"landmark '{node.id}' at {_node_path(doc, count)}: position must be non-negative")
        if node.id in table:
            raise AnchorError(f"duplicate landmark id '{node.id}' at {_node_path(doc, count)}")
        table[node.id] = value
    return table


def _node_path(doc: GmtDocument, count: int) -> str:
    """The path of the ``count``-th node of :meth:`GmtDocument.walk`, rendered only for an error."""
    return list(doc.walk())[count - 1][0]


class ResolvedSpan(Record):
    """Where a segment reference points after resolution.

    Either a concrete ``(start, end)`` span in some source, or -- for
    object-based anchoring -- the identifiers of the target nodes.
    """
    __slots__ = ("layer", "start", "end", "target_nodes")

    def __init__(
        self, layer: str, start: Optional[int] = None, end: Optional[int] = None, target_nodes: tuple[str, ...] = ()
    ) -> None:
        _set(self, "layer", layer)
        _set(self, "start", start)
        _set(self, "end", end)
        _set(self, "target_nodes", target_nodes)

    @property
    def is_span(self) -> bool:
        return self.start is not None


def _span(
    addr: Addressing, tokens: Optional[TokenIndex], landmarks: Optional[LandmarkTable]
) -> Optional[tuple[int, int]]:
    """``(start, end)`` of an addressing in the primary data, or None when only a layer could resolve its ids.

    Raises what :func:`resolve_seg` raises for an inverted span, for
    landmarks and for a reference that names no targets.
    """
    cls = type(addr)
    if cls is IdTargets:
        ids = addr.ids
        if not ids:
            raise UnresolvedTargetError("", "segment reference names no targets")
        if tokens is None:
            return None
        by_id = tokens._by_id
        if len(ids) == 1:
            token = by_id.get(ids[0])
            return None if token is None else (token.start, token.end)
        found = [by_id.get(token_id) for token_id in ids]
        if None in found:
            return None
        return min(token.start for token in found), max(token.end for token in found)
    if cls is PositionalSpan:
        if addr.start > addr.end:
            raise InvertedSpanError(f"span starts at {addr.start} after its end {addr.end}")
        return addr.start, addr.end
    if landmarks is None:
        raise UnresolvedTargetError(addr.start, "no landmark table supplied")
    start = landmarks.get(addr.start)
    if start is None:
        raise UnresolvedTargetError(addr.start)
    end = landmarks.get(addr.end)
    if end is None:
        raise UnresolvedTargetError(addr.end)
    if start > end:
        raise InvertedSpanError(f"landmarks '{addr.start}'..'{addr.end}' span {start}..{end}, which is inverted")
    return start, end


def resolve_seg(
    seg: SegmentRef,
    tokens: Optional[TokenIndex] = None,
    landmarks: Optional[LandmarkTable] = None,
    layers: Optional[Mapping[str, GmtDocument]] = None,
) -> ResolvedSpan:
    """Resolve one segment reference against the supplied context.

    Positional spans resolve to themselves.  Landmark endpoints are
    looked up in the landmark table.  A span, positional or through
    landmarks, whose start lies after its end raises
    :class:`InvertedSpanError`.  Identifier targets must resolve
    entirely within one context: the token index first, then each layer
    document in turn; token matches yield the covering span (min start,
    max end), layer matches yield the target node list.  Layer lookups go
    through :func:`find_node`: one indexing walk per layer document, cached
    because documents are immutable, then O(1) per target id.
    """
    addr = seg.addr
    span = _span(addr, tokens, landmarks)
    if span is not None:
        return ResolvedSpan(PRIMARY, span[0], span[1])
    for key, layer_doc in (layers or {}).items():
        if all(find_node(layer_doc, t) is not None for t in addr.ids):
            return ResolvedSpan(key, target_nodes=tuple(addr.ids))
    docs = (layers or {}).values()
    missing = [t for t in addr.ids if (tokens is None or t not in tokens)
               and all(find_node(d, t) is None for d in docs)]
    raise UnresolvedTargetError(missing[0] if missing else addr.ids[0])


def derived_extent(
    node: StructNode,
    tokens: Optional[TokenIndex] = None,
    landmarks: Optional[LandmarkTable] = None,
    strict: bool = True,
    warnings: Optional[list[str]] = None,
) -> Optional[tuple[int, int]]:
    """Covering span over every resolvable segment of a node and its children.

    In strict mode an unresolvable target propagates as an error; in
    lenient mode it is skipped and recorded in ``warnings``.  Returns
    None when nothing resolves to offsets.
    """
    warnings = [] if warnings is None else warnings
    spans: list[tuple[int, int]] = []
    # Children are pushed in reverse so nodes are visited in document order.
    stack = [node]
    while stack:
        current = stack.pop()
        for item in iter_items(current):
            if type(item) is not SegmentRef:
                continue
            try:
                span = _span(item.addr, tokens, landmarks)
                if span is None:
                    # Ids that no token covers: without layers, resolve_seg raises its error.
                    resolve_seg(item, tokens=tokens, landmarks=landmarks)
            except (UnresolvedTargetError, InvertedSpanError) as exc:
                if strict:
                    raise
                warnings.append(str(exc))
                continue
            spans.append(span)
        stack.extend(reversed(current.children))
    if not spans:
        return None
    starts, ends = zip(*spans)
    return min(starts), max(ends)
