"""GMT XML reading and canonical writing.

The element grammar (documented in ``docs/formats.md``):

==========  ====================================================  =========================
element     attributes                                            becomes
==========  ====================================================  =========================
struct      type, id (or ID), ref                                 StructNode
feat        type, target                                          Feature
alt         --                                                    one alternative of an AltSet
rel         type, target                                          Relation
seg         target | targets | startsAt/endsAt                    SegmentRef
            (startPosition/endPosition accepted as synonyms)
brack       --                                                    Bracket
startsAt    target                                                landmark span start
endsAt      target                                                landmark span end
==========  ====================================================  =========================

The reader applies it from one table, ``_ELEMENTS``: per tag, the
attributes it reads (any other warns), the known tags it may contain and
its closer.  Any other element with pure text content is read as a
Feature whose category is the element name; other unknown elements
produce a warning and are skipped with their whole subtree.  An
external entity is never fetched: it reads as empty text, with a
warning, and so does a reference to an entity whose declaration expat
did not read.

The reader holds no reference cycle, so a parsed document is freed by
reference counting as soon as its caller drops it, without waiting for
the cyclic collector.  Within one document, equal leaf features (same
category, same text, no nested value) are one shared object; the model
is immutable, so ``==``, paths and the writer cannot tell.  Leaf
elements are read without a frame until a child arrives, and a <struct>
keeps its child nodes apart from its other members (see ``_Frame``).
Frames and warnings hold UTF-8 byte indices while the parse runs; one
pass after it turns the warnings' indices into lines and columns.

The writer checks each element as it writes it by the validators' rules
(``model._problems``), and reports the first ``validate_structure``
error of a document it refuses.  Serialization is canonical: UTF-8 with
an XML declaration, two-space indentation that stops growing at 128
levels (256 spaces), so the output grows linearly with nesting depth,
fixed attribute order (type, id, ref, then addressing), single targets
in fragment form (``target="#id"``), multiple targets as bare ids
(``targets="id1 id2"``), positional spans as startsAt/endsAt attributes
and landmark spans as a ``<startsAt/>``/``<endsAt/>`` element pair.
Tab, newline and carriage return in attribute values, and carriage
return in text, are written as character references.  Feature text is
otherwise emitted verbatim, so values must carry no leading or trailing
whitespace (the parser trims them) for the round-trip
``parse(serialize(doc)) == doc`` to hold.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator, NoReturn, Optional
from xml.parsers import expat

from .errors import GmtParseError, GmtSerializeError
from .model import (
    CONFIDENCE_CAT,
    AltSet,
    Bracket,
    Feature,
    GmtDocument,
    IdTargets,
    LandmarkEndpoints,
    NodeItem,
    PositionalSpan,
    Record,
    Relation,
    SegmentRef,
    StructNode,
    _id_problems,
    _integer,
    _leaf,
    _problems,
    _set,
    validate_structure,
)


class ParseWarning(tuple):
    """A soft problem and where it starts, 1-based: a ``(line, column, message)`` tuple with named fields."""

    __slots__ = ()

    def __new__(cls, line: int, column: int, message: str) -> ParseWarning:
        return tuple.__new__(cls, (line, column, message))

    def __getnewargs__(self) -> tuple[int, int, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"ParseWarning(line={self[0]!r}, column={self[1]!r}, message={self[2]!r})"

    line = property(itemgetter(0))
    column = property(itemgetter(1))
    message = property(itemgetter(2))


class ParseDiagnostics(Record):
    """Soft problems encountered while reading a document."""
    __slots__ = ("warnings",)

    def __init__(self, warnings: tuple[ParseWarning, ...]) -> None:
        _set(self, "warnings", warnings)


# ---------------------------------------------------------------------------
# parsing

# A frame is one open element: a list [tag, row, attrs, at, members, text,
# last, nodes].  ``at`` is the UTF-8 byte index of its start tag.  ``members``
# holds what the children's closers built, in document order: features,
# items, open <alt> runs (lists of bundles) and <startsAt>/<endsAt> marks
# ``(tag, target, at)`` waiting to be paired; a <seg>'s first member is its
# own reference.  ``nodes`` takes the child nodes: a <struct> keeps them apart
# until a run, a mark or lifted content moves them to the front of its
# members (``_unsorted``); in any other frame it is ``members`` itself.
# ``text`` is the element's text so far and ``last`` the tag of its last
# closed child (None for none).  Once it has a child, only whether its text is
# blank matters, so blank text between children is dropped.  A <feat> with
# only ``type``, and a <seg> with only ``target`` in a <struct> or <brack>, is
# a pending leaf with no frame until a child's start tag gives it one.
_Frame = list


class _GmtBuilder:
    def __init__(self) -> None:
        # The bottom frame holds the document element.
        top: list = []
        self.stack: list[_Frame] = [["", _ROOT, {}, 0, top, "", None, top]]
        self.warnings: list[tuple[int, str]] = []  # (byte index, message), placed by parse() at the end
        self.skip_depth = 0
        # The open leaf that has no frame: (tag, category or SegmentRef, attrs, at), or None.
        self.pending: Optional[tuple[str, object, dict[str, str], int]] = None
        self.leaves: dict[tuple[str, str], Feature] = {}  # equal text features, shared
        # expat appends each run of text here; the next tag hands it to the open element.
        self.chunks: list[str] = []
        self.parser = expat.ParserCreate()
        self.parser.buffer_text = True
        self.parser.StartElementHandler, self.parser.EndElementHandler = self._handlers()
        self.parser.CharacterDataHandler = self.chunks.append
        self.parser.ExternalEntityRefHandler = self._external_entity
        self.parser.SkippedEntityHandler = self._skipped_entity

    # -- position helpers

    def _warn(self, message: str, at: Optional[int] = None) -> None:
        self.warnings.append((self.parser.CurrentByteIndex if at is None else at, message))

    def _fail(self, message: str) -> NoReturn:
        raise GmtParseError(message, self.parser.CurrentLineNumber, self.parser.CurrentColumnNumber + 1)

    # -- expat handlers

    def _handlers(self) -> tuple[Callable, Callable]:
        """expat's start and end tag handlers, closures over the stack, the text chunks and the leaf table."""
        stack, chunks, leaves = self.stack, self.chunks, self.leaves

        def start(tag: str, attrs: dict[str, str]) -> None:
            if self.skip_depth:  # the skipped element's end tag drops its text
                self.skip_depth += 1
                return
            pending = self.pending
            if pending is not None:  # the pending leaf has a child after all: open its frame
                self.pending = None
                members = [pending[1]] if pending[0] == "seg" else []
                stack.append([pending[0], _ELEMENTS[pending[0]], pending[2], pending[3], members, "", None, members])
            parent = stack[-1]
            if chunks:
                text = "".join(chunks)
                chunks.clear()
                if parent[6] is None or text.strip():
                    parent[5] += text
            row = parent[1].contains.get(tag) or self._other(tag, parent)
            if row is None:
                return
            at = self.parser.CurrentByteIndex
            if len(attrs) == 1:
                if tag == "feat" and "type" in attrs:
                    self.pending = (tag, attrs["type"], attrs, at)
                    return
                if tag == "seg" and "target" in attrs and parent[0] in ("struct", "brack"):
                    self.pending = (tag, SegmentRef(IdTargets((attrs["target"].removeprefix("#"),))), attrs, at)
                    return
            if row.attrs is not None and not row.attrs.issuperset(attrs):
                for name in attrs:
                    if name not in row.attrs:
                        self._warn(f"unknown attribute '{name}' on <{tag}>; ignored", at)
            members = [self._read_seg(attrs, at)] if tag == "seg" else []
            stack.append([tag, row, attrs, at, members, "", None, [] if tag == "struct" else members])

        def end(tag: str) -> None:
            if self.skip_depth:
                chunks.clear()
                self.skip_depth -= 1
                return
            pending = self.pending
            if pending is not None:  # no child arrived, so this is the pending leaf's end tag
                self.pending = None
                parent = stack[-1]
                if tag == "feat":
                    parent[4].append(_leaf(leaves, pending[1], "".join(chunks).strip()))
                else:
                    parent[4].append(pending[1])
                chunks.clear()
                parent[6] = tag
                return
            frame = stack.pop()
            text = frame[5]
            if chunks:
                text += "".join(chunks)
                chunks.clear()
            if frame[6] is not None and text.strip():
                self._warn(f"<{tag}> mixes text with child elements; text ignored", frame[3])
                text = ""
            elif tag in ("struct", "alt", "brack") and text.strip():  # elements that hold no text
                self._warn(f"<{tag}> contains stray text; ignored", frame[3])
            parent = stack[-1]
            frame[1].close(self, frame, parent, text)
            parent[6] = tag

        return start, end

    def _other(self, tag: str, parent: _Frame) -> Optional[_Element]:
        """The row of a tag that its parent's row does not map, or None when the element is skipped."""
        if parent[1] is _ROOT:
            self._fail(f"document element must be <struct>, got <{tag}>")
        # An element that may contain some known tags may also contain unknown ones.
        if tag not in _ELEMENTS and parent[1].contains:
            return _UNKNOWN
        self._warn(f"<{parent[0]}> cannot contain <{tag}>; element skipped")
        self.skip_depth = 1
        return None

    def _external_entity(self, name: str, base: Optional[str], system_id: str, public_id: Optional[str]) -> int:
        self._warn(f"external entity '{name}' (system id '{system_id}') not fetched; read as empty")
        return 1

    def _skipped_entity(self, name: str, is_parameter_entity: bool) -> None:
        # expat skips an undeclared reference, not refuses it, after an external DTD or %p;
        self._warn(f"entity '{name}' not expanded (no declaration read); read as empty")

    # -- element closers: each appends what it builds to its parent's members.
    # The members of an unknown element are dropped with it.

    def _close_struct(self, frame: _Frame, parent: _Frame, text: str) -> None:
        attrs = frame[2]
        if "id" in attrs and "ID" in attrs:
            self._warn("both 'id' and 'ID' given; 'id' wins", frame[3])
        ref = attrs.get("ref")
        items, children = self._finish(frame[4]) if frame[7] is frame[4] else (tuple(frame[4]), tuple(frame[7]))
        parent[7].append(StructNode(attrs.get("type"), attrs.get("id", attrs.get("ID")),
                                    ref.removeprefix("#") if ref is not None else None, items, children))

    def _close_feat(self, frame: _Frame, parent: _Frame, text: str) -> None:
        cat = frame[2].get("type")
        if cat is None:
            self._warn("<feat> without a type attribute", frame[3])
            cat = ""
        target = frame[2].get("target")
        if target is not None and text.strip():
            self._warn("<feat> carries both a target and text; text ignored", frame[3])
        if frame[4] or target is not None:
            parent[4].append(Feature(
                cat=cat,
                nested=tuple(frame[4]) or None,
                target=target.removeprefix("#") if target is not None else None,
            ))
        else:
            parent[4].append(_leaf(self.leaves, cat, text.strip()))

    def _close_alt(self, frame: _Frame, parent: _Frame, text: str) -> None:
        if parent[1] is _UNKNOWN:
            self._warn("<alt> outside a node; ignored", frame[3])
        elif parent[6] == "alt":  # the run that the previous sibling opened
            parent[4][-1].append(tuple(frame[4]))
        else:
            _unsorted(parent).append([tuple(frame[4])])

    def _close_rel(self, frame: _Frame, parent: _Frame, text: str) -> None:
        target = frame[2].get("target")
        if target is None:
            self._warn("<rel> without a target; skipped", frame[3])
        else:
            parent[4].append(Relation(target=target.removeprefix("#"), rel_type=frame[2].get("type")))

    def _close_seg(self, frame: _Frame, parent: _Frame, text: str) -> None:
        if parent[0] not in ("struct", "brack"):
            self._warn("<seg> in an unexpected position; ignored", frame[3])
            return
        seg, *content = frame[4]
        parent[4].append(seg)
        if content:
            # Stand-off leniency: content nested inside <seg> belongs to the
            # nearest enclosing node, right after the reference itself.
            self._warn(f"<seg> with element content; content {self._lift(content)}", frame[3])

    def _lift(self, members: list) -> str:
        """Attach members to the nearest enclosing node, or drop them inside an unknown element; say which."""
        owner = next(f for f in reversed(self.stack) if f[0] == "struct" or f[1] is _UNKNOWN)
        _unsorted(owner).extend(members)
        return "attached to the enclosing node" if owner[0] == "struct" else f"dropped with unknown <{owner[0]}>"

    def _close_brack(self, frame: _Frame, parent: _Frame, text: str) -> None:
        items, children = self._finish(frame[4])
        if children:
            self._warn(f"<brack> cannot group nodes; nodes {self._lift(children)}", frame[3])
        parent[4].append(Bracket(members=items))

    def _close_endpoint(self, frame: _Frame, parent: _Frame, text: str) -> None:
        target = frame[2].get("target")
        if target is None:
            self._close_unknown(frame, parent, text)
        elif parent[0] not in ("struct", "brack"):
            self._warn(f"<{frame[0]}> in an unexpected position; ignored", frame[3])
        else:
            _unsorted(parent).append((frame[0], target.removeprefix("#"), frame[3]))  # paired by the enclosing _finish

    def _close_unknown(self, frame: _Frame, parent: _Frame, text: str) -> None:
        if frame[6] is not None:
            self._warn(f"unknown element <{frame[0]}>; skipped", frame[3])
        else:
            # Leaf elements outside the core tag set are read as features named
            # by the element, which keeps landmark descriptions parseable.
            parent[4].append(_leaf(self.leaves, frame[0], text.strip()))

    def _finish(self, members: list) -> tuple[tuple[NodeItem, ...], tuple[StructNode, ...]]:
        """Split members into items and child nodes, pair landmark endpoints and fold <alt> runs."""
        items: list = []
        children: list[StructNode] = []
        starts: list[int] = []  # where the unpaired <startsAt> marks sit in items
        for member in members:
            cls = type(member)
            if cls is StructNode:
                children.append(member)
            elif cls is list:
                items.append(AltSet(tuple(member)))
            elif cls is not tuple:
                items.append(member)
            elif member[0] == "startsAt":
                starts.append(len(items))
                items.append(member)
            elif starts:
                start = starts.pop(0)
                items[start] = SegmentRef(LandmarkEndpoints(items[start][1], member[1]))
            else:
                self._warn("<endsAt> without a matching <startsAt>; dropped", member[2])
        for start in reversed(starts):
            self._warn("<startsAt> without a matching <endsAt>; dropped", items.pop(start)[2])
        return tuple(items), tuple(children)

    def _read_seg(self, attrs: dict[str, str], at: int) -> SegmentRef:
        id_mode = "target" in attrs or "targets" in attrs
        start_raw = self._positional_attr(attrs, "startsAt", "startPosition", at)
        end_raw = self._positional_attr(attrs, "endsAt", "endPosition", at)
        if id_mode and (start_raw is not None or end_raw is not None):
            self._fail("<seg> mixes id and positional addressing; the modes are exclusive")
        if id_mode:
            ids: list[str] = []
            if "target" in attrs:
                ids.append(attrs["target"].removeprefix("#"))
            if "targets" in attrs:
                ids.extend(t.removeprefix("#") for t in attrs["targets"].split())
            return SegmentRef(IdTargets(tuple(ids)))
        if start_raw is not None or end_raw is not None:
            if start_raw is None or end_raw is None:
                self._fail("<seg> positional addressing needs both a start and an end")
            return SegmentRef(PositionalSpan(self._offset(start_raw), self._offset(end_raw)))
        self._warn("<seg> without any addressing", at)
        return SegmentRef(IdTargets(()))

    def _positional_attr(self, attrs: dict[str, str], name: str, synonym: str, at: int) -> Optional[str]:
        if name in attrs and synonym in attrs:
            self._warn(f"both '{name}' and '{synonym}' given; '{name}' wins", at)
            return attrs[name]
        return attrs.get(name, attrs.get(synonym))

    def _offset(self, raw: str) -> int:
        value = _integer(raw)
        if value is None or value < 0:
            self._fail(f"offset must be a non-negative integer, got {raw!r}")
        return value

    # -- driver

    def parse(self, text: str) -> tuple[GmtDocument, ParseDiagnostics]:
        try:
            self.parser.Parse(text, True)
        except expat.ExpatError as exc:
            raise GmtParseError(
                expat.errors.messages[exc.code], exc.lineno, exc.offset + 1
            ) from exc
        finally:
            self.parser = None  # its handlers hold self, as closures or bound methods: drop the cycle
        return GmtDocument(self.stack[0][4][0]), ParseDiagnostics(_placed(text, self.warnings) if self.warnings else ())


def _unsorted(frame: _Frame) -> list:
    """The members of ``frame``, for ``_finish`` to sort out: a <struct>'s nodes so far move to their front."""
    if frame[7] is not frame[4]:
        frame[4][:0], frame[7] = frame[7], frame[4]
    return frame[4]


def _placed(text: str, warnings: list[tuple[int, str]]) -> tuple[ParseWarning, ...]:
    """Each warning ``(UTF-8 byte index, message)`` on ``text`` at expat's 1-based line and column, from
    one pass in index order: columns count characters, and CRLF and a lone CR each end one line."""
    data, places = text.encode(), {}
    byte, char, start, line = 0, 0, 0, 1  # the last index placed, its character offset, where its line starts
    for index in sorted({at for at, _ in warnings}):
        end = char + len(data[byte:index].decode())
        line += text.count("\n", char, end) + text.count("\r", char, end) - text.count("\r\n", char, end)
        start = max(text.rfind("\n", char, end), text.rfind("\r", char, end), start - 1) + 1
        places[index] = (line, end - start + 1)
        byte, char = index, end
    return tuple(ParseWarning(*places[at], message) for at, message in warnings)


class _Element:
    """One row of the element grammar, as the reader applies it."""
    __slots__ = ("attrs", "contains", "close")

    def __init__(
        self,
        attrs: Optional[frozenset[str]],
        contains: dict[str, _Element],
        close: Callable[[_GmtBuilder, _Frame, _Frame, str], None],
    ) -> None:
        self.attrs = attrs  # the attributes it reads; others warn (None: no check)
        # The known tags it may contain, each with its row.  A row that maps some
        # tags also admits unknown ones; an empty map admits none.
        self.contains = contains
        self.close = close


def _row(attrs: tuple[str, ...], close: Callable) -> _Element:
    return _Element(frozenset(attrs), {}, close)


_ELEMENTS = {
    "struct": _row(("type", "id", "ID", "ref"), _GmtBuilder._close_struct),
    "feat": _row(("type", "target"), _GmtBuilder._close_feat),
    "alt": _row((), _GmtBuilder._close_alt),
    "rel": _row(("type", "target"), _GmtBuilder._close_rel),
    "seg": _row(("target", "targets", "startsAt", "endsAt", "startPosition", "endPosition"), _GmtBuilder._close_seg),
    "brack": _row((), _GmtBuilder._close_brack),
    "startsAt": _row(("target",), _GmtBuilder._close_endpoint),
    "endsAt": _row(("target",), _GmtBuilder._close_endpoint),
}
_UNKNOWN = _Element(None, {}, _GmtBuilder._close_unknown)
_ROOT = _Element(None, {"struct": _ELEMENTS["struct"]}, _GmtBuilder._close_unknown)  # never closed
# The known tags each element may contain; struct, seg, brack and unknown elements may contain any.
_CONTAINS = {"feat": ("feat",), "alt": ("feat", "struct"), "rel": (), "startsAt": (), "endsAt": ()}
for _tag, _element in [*_ELEMENTS.items(), ("", _UNKNOWN)]:
    _element.contains.update((t, _ELEMENTS[t]) for t in _CONTAINS.get(_tag, _ELEMENTS))


def parse_gmt(text: str) -> tuple[GmtDocument, ParseDiagnostics]:
    """Read GMT XML into a document.

    Hard grammar violations (malformed XML, a segment mixing its
    addressing modes, bad offsets) raise :class:`GmtParseError` with a
    1-based position; recoverable oddities become diagnostics.
    """
    return _GmtBuilder().parse(text)


# ---------------------------------------------------------------------------
# serialization


_CONTENT_SPECIALS = frozenset("&<>\r")  # what _content rewrites
_ATTR_SPECIALS = frozenset('&<>\r"\t\n')  # what _attr rewrites
_MAX_INDENT = 256  # spaces: the members of deeper elements are indented no further


def _attr(value: str) -> str:
    # Character references keep tab, newline and carriage return through
    # attribute-value normalization, which turns them into spaces.
    if not _ATTR_SPECIALS.isdisjoint(value):
        value = _content(value).replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;")
    return f'"{value}"'


def _content(value: str) -> str:
    # A literal carriage return would be read back as a newline.
    if _CONTENT_SPECIALS.isdisjoint(value):
        return value
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")


class _Quoted(dict):
    """Attribute values and their quoted forms: ``quoted[value]`` calls :func:`_attr` once per value."""

    def __missing__(self, value: str) -> str:
        return self.setdefault(value, _attr(value))


def serialize_gmt(doc: GmtDocument) -> str:
    """Write a document in canonical GMT XML.

    Each element is checked as it is written, by the validators' rules: a
    document with any :func:`validate_structure` error is refused with the first of them.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    seen_ids: set[str] = set()
    quoted = _Quoted()
    # A text feature's line without its indent, by (category, text): equal features of separately read layers
    # are distinct objects, and a key by value costs no more than one by id(feature).
    text_lines: dict[tuple[str, str], str] = {}
    confidences: set[str] = set()  # the bundle confidence texts that _problems accepts
    # A frame: the values to write, their indentation, the closing line of their element (None
    # for an alternative set, whose bundles are the elements) and whether they form a bundle.
    stack: list[tuple[Iterator, str, Optional[str], bool]] = [(iter((doc.root,)), "", None, False)]
    while stack:
        values, pad, closing, in_bundle = stack[-1]
        for value in values:
            cls = type(value)
            if cls is Feature:
                if value.text is not None and value.nested is None and value.target is None:
                    # The one rule for a text leaf is a bundle's confidence, asked about once per distinct text.
                    if in_bundle and value.cat == CONFIDENCE_CAT and value.text not in confidences:
                        if _problems(value, True):
                            _refuse(doc)
                        confidences.add(value.text)
                    line = text_lines.get((value.cat, value.text))
                    if line is None:
                        line = text_lines[value.cat, value.text] = f"<feat type={quoted[value.cat]}>{_content(value.text)}</feat>"
                    lines.append(pad + line)
                    continue
                if _problems(value, in_bundle):
                    _refuse(doc)
                if value.target is not None:
                    lines.append(f"{pad}<feat type={quoted[value.cat]} target={quoted['#' + value.target]}/>")
                    continue
                tag, attrs, content = "feat", f" type={quoted[value.cat]}", value.nested
            elif cls is StructNode:
                attrs = f" type={quoted[value.type]}" if value.type is not None else ""
                if value.id is not None:
                    if _id_problems(value.id, seen_ids):
                        _refuse(doc)
                    attrs += f" id={quoted[value.id]}"
                if value.ref is not None:
                    attrs += f" ref={quoted['#' + value.ref]}"
                tag, content = "struct", value.items + value.children
            elif cls is SegmentRef:
                addr = value.addr
                mode = type(addr)
                if mode is IdTargets and len(addr.ids) == 1:  # the most common shape, mostly with nothing to escape
                    target = addr.ids[0]
                    quote = f'"#{target}"' if _ATTR_SPECIALS.isdisjoint(target) else quoted["#" + target]
                    lines.append(f"{pad}<seg target={quote}/>")
                elif mode is LandmarkEndpoints:  # no rule applies to this shape or the one above, so neither is asked
                    lines.append(f"{pad}<startsAt target={quoted['#' + addr.start]}/>")
                    lines.append(f"{pad}<endsAt target={quoted['#' + addr.end]}/>")
                elif _problems(value, False):
                    _refuse(doc)
                elif mode is IdTargets:
                    lines.append(f"{pad}<seg targets={quoted[' '.join(addr.ids)]}/>")
                else:
                    lines.append(f"{pad}<seg startsAt={quoted[str(addr.start)]} endsAt={quoted[str(addr.end)]}/>")
                continue
            elif cls is AltSet:
                if _problems(value, False):
                    _refuse(doc)
                stack.append((iter(value.alternatives), pad, None, False))
                break
            elif cls is tuple:  # one bundle of an alternative set
                tag, attrs, content = "alt", "", value
            elif cls is Relation:
                if _problems(value, False):
                    _refuse(doc)
                type_part = f" type={quoted[value.rel_type]}" if value.rel_type is not None else ""
                lines.append(f"{pad}<rel{type_part} target={quoted['#' + value.target]}/>")
                continue
            else:
                tag, attrs, content = "brack", "", value.members
            if not content:
                lines.append(f"{pad}<{tag}{attrs}/>")
                continue
            lines.append(f"{pad}<{tag}{attrs}>")
            inner = pad + "  " if len(pad) < _MAX_INDENT else pad
            stack.append((iter(content), inner, f"{pad}</{tag}>", cls is tuple))
            break
        else:
            stack.pop()
            if closing is not None:
                lines.append(closing)
    return "\n".join(lines) + "\n"


def _refuse(doc: GmtDocument) -> NoReturn:
    first = validate_structure(doc).errors[0]
    raise GmtSerializeError(f"invalid document: {first.code} at {first.path}: {first.message}")

