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

Any other element with pure text content is read as a Feature whose
category is the element name; other unknown elements produce a warning
and are skipped with their whole subtree.  An external entity is never
fetched: it reads as empty text, with a warning, and so does a reference
to an entity whose declaration expat did not read.

The reader holds no reference cycle, so a parsed document is freed by
reference counting as soon as its caller drops it, without waiting for
the cyclic collector.  Within one document, equal leaf features (same
category, same text, no nested value) are one shared object; the model
is immutable, so ``==``, paths and the writer cannot tell.

Serialization is canonical: UTF-8 with an XML declaration, two-space
indentation, fixed attribute order (type, id, ref, then addressing),
single targets in fragment form (``target="#id"``), multiple targets as
bare ids (``targets="id1 id2"``), positional spans as startsAt/endsAt
attributes and landmark spans as a ``<startsAt/>``/``<endsAt/>`` element
pair.  Feature text is emitted verbatim, so values must carry no leading
or trailing whitespace (the parser trims them) for the round-trip
``parse(serialize(doc)) == doc`` to hold.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Union
from xml.parsers import expat

from .errors import GmtParseError, GmtSerializeError
from .model import (
    AltSet,
    Bracket,
    Bundle,
    Feature,
    GmtDocument,
    IdTargets,
    LandmarkEndpoints,
    NodeItem,
    PositionalSpan,
    Relation,
    SegmentRef,
    StructNode,
    validate_structure,
)


class ParseWarning(NamedTuple):
    line: int
    column: int
    message: str


class ParseDiagnostics(NamedTuple):
    """Soft problems encountered while reading a document."""

    warnings: tuple[ParseWarning, ...]


def strip_pointer(value: str) -> str:
    """Normalize a pointer attribute: drop the leading ``#`` if present."""
    return value[1:] if value.startswith("#") else value


# ---------------------------------------------------------------------------
# parsing


class _EndpointMark(NamedTuple):
    kind: str  # "start" | "end"
    target: str
    line: int
    column: int


class _AltRun:
    """Consecutive <alt> siblings collapse into one alternative set."""

    def __init__(self) -> None:
        self.bundles: list[Bundle] = []


class _Frame:
    __slots__ = ("tag", "attrs", "line", "column", "text_parts", "items", "children",
                 "nested", "bundle", "alt_run_open", "saw_elements", "pending_seg")

    def __init__(self, tag: str, attrs: dict[str, str], line: int, column: int):
        self.tag = tag
        self.attrs = attrs
        self.line = line
        self.column = column
        self.text_parts: list[str] = []
        self.items: list[object] = []        # raw items incl. marks and alt runs
        self.children: list[StructNode] = []
        self.nested: list[Feature] = []      # feat only
        self.bundle: list[Union[Feature, StructNode]] = []  # alt only
        self.alt_run_open = False
        self.saw_elements = False
        self.pending_seg: Optional[SegmentRef] = None


_ITEM_CONTAINERS = ("struct", "brack", "seg")
_SEG_ATTRS = frozenset(("target", "targets", "startsAt", "endsAt", "startPosition", "endPosition"))


class _GmtBuilder:
    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.warnings: list[ParseWarning] = []
        self.root: Optional[StructNode] = None
        self.skip_depth = 0
        self.leaves: dict[tuple[str, str], Feature] = {}  # equal text features, shared
        self.parser = expat.ParserCreate()
        self.parser.buffer_text = True
        self.parser.StartElementHandler = self._start
        self.parser.EndElementHandler = self._end
        self.parser.CharacterDataHandler = self._text
        self.parser.ExternalEntityRefHandler = self._external_entity
        self.parser.SkippedEntityHandler = self._skipped_entity

    # -- position helpers

    def _pos(self) -> tuple[int, int]:
        return self.parser.CurrentLineNumber, self.parser.CurrentColumnNumber + 1

    def _warn(self, message: str, pos: Optional[tuple[int, int]] = None) -> None:
        line, column = pos if pos is not None else self._pos()
        self.warnings.append(ParseWarning(line, column, message))

    def _fail(self, message: str) -> None:
        line, column = self._pos()
        raise GmtParseError(message, line, column)

    # -- expat handlers

    def _start(self, tag: str, attrs: dict[str, str]) -> None:
        if self.skip_depth:
            self.skip_depth += 1
            return
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            if tag != "struct":
                self._fail(f"document element must be <struct>, got <{tag}>")
        elif parent.tag in ("rel", "startsAt", "endsAt"):
            self._warn(f"<{parent.tag}> cannot contain <{tag}>; element skipped")
            self.skip_depth = 1
            return
        elif parent.tag == "feat" and tag not in ("feat",) and not self._is_leafish(tag):
            self._warn(f"<feat> cannot contain <{tag}>; element skipped")
            self.skip_depth = 1
            return
        elif parent.tag == "alt" and tag not in ("feat", "struct") and not self._is_leafish(tag):
            self._warn(f"<alt> cannot contain <{tag}>; element skipped")
            self.skip_depth = 1
            return
        if parent is not None:
            parent.saw_elements = True
            if tag != "alt":
                parent.alt_run_open = False
        line, column = self._pos()
        frame = _Frame(tag, attrs, line, column)
        if tag == "seg":
            frame.pending_seg = self._read_seg(attrs, frame)
        self.stack.append(frame)

    @staticmethod
    def _is_leafish(tag: str) -> bool:
        return tag not in ("struct", "feat", "alt", "rel", "seg", "brack", "startsAt", "endsAt")

    def _text(self, data: str) -> None:
        if self.skip_depth or not self.stack:
            return
        self.stack[-1].text_parts.append(data)

    def _end(self, tag: str) -> None:
        if self.skip_depth:
            self.skip_depth -= 1
            return
        frame = self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        text = "".join(frame.text_parts)
        if text.strip() and frame.saw_elements:
            self._warn(f"<{tag}> mixes text with child elements; text ignored", (frame.line, frame.column))
            text = ""
        _CLOSERS.get(tag, _GmtBuilder._close_unknown)(self, frame, parent, text)

    def _external_entity(self, name: str, base: Optional[str], system_id: str, public_id: Optional[str]) -> int:
        self._warn(f"external entity '{name}' (system id '{system_id}') not fetched; read as empty")
        return 1

    def _skipped_entity(self, name: str, is_parameter_entity: bool) -> None:
        # expat skips an undeclared reference, not refuses it, after an external DTD or %p;
        self._warn(f"entity '{name}' not expanded (no declaration read); read as empty")

    # -- element closers

    def _close_struct(self, frame: _Frame, parent: Optional[_Frame], text: str) -> None:
        if text.strip():
            self._warn("<struct> contains stray text; ignored", (frame.line, frame.column))
        node_type, ref = None, None
        for name, value in frame.attrs.items():
            if name == "type":
                node_type = value
            elif name == "ref":
                ref = strip_pointer(value)
            elif name not in ("id", "ID"):
                self._warn(f"unknown attribute '{name}' on <struct>; ignored", (frame.line, frame.column))
        node_id = frame.attrs.get("id")
        if "ID" in frame.attrs:
            if node_id is None:
                node_id = frame.attrs["ID"]
            else:
                self._warn("both 'id' and 'ID' given; 'id' wins", (frame.line, frame.column))
        node = StructNode(
            type=node_type,
            id=node_id,
            ref=ref,
            items=self._finish_items(frame),
            children=tuple(frame.children),
        )
        if parent is None:
            self.root = node
        elif parent.tag == "alt":
            parent.bundle.append(node)
        else:
            parent.children.append(node)

    def _leaf(self, cat: str, text: str) -> Feature:
        feat = self.leaves.get((cat, text))
        if feat is None:
            feat = self.leaves[cat, text] = Feature(cat=cat, text=text)
        return feat

    def _close_feat(self, frame: _Frame, parent: Optional[_Frame], text: str) -> None:
        cat = frame.attrs.get("type")
        if cat is None:
            self._warn("<feat> without a type attribute", (frame.line, frame.column))
            cat = ""
        target = frame.attrs.get("target")
        for name in frame.attrs:
            if name not in ("type", "target"):
                self._warn(f"unknown attribute '{name}' on <feat>; ignored", (frame.line, frame.column))
        if target is not None and text.strip():
            self._warn("<feat> carries both a target and text; text ignored", (frame.line, frame.column))
        if frame.nested or target is not None:
            feat = Feature(
                cat=cat,
                nested=tuple(frame.nested) if frame.nested else None,
                target=strip_pointer(target) if target is not None else None,
            )
        else:
            feat = self._leaf(cat, text.strip())
        self._emit_feature(feat, parent)

    def _emit_feature(self, feat: Feature, parent: _Frame) -> None:
        if parent.tag == "feat":
            parent.nested.append(feat)
        elif parent.tag == "alt":
            parent.bundle.append(feat)
        elif parent.tag in _ITEM_CONTAINERS:
            self._append_item(parent, feat)

    def _close_alt(self, frame: _Frame, parent: Optional[_Frame], text: str) -> None:
        if text.strip():
            self._warn("<alt> contains stray text; ignored", (frame.line, frame.column))
        if parent is None or parent.tag not in _ITEM_CONTAINERS:
            self._warn("<alt> outside a node; ignored", (frame.line, frame.column))
            return
        bundle = tuple(frame.bundle)
        if parent.alt_run_open and parent.items and isinstance(parent.items[-1], _AltRun):
            parent.items[-1].bundles.append(bundle)
        else:
            run = _AltRun()
            run.bundles.append(bundle)
            parent.items.append(run)
            parent.alt_run_open = True

    def _close_rel(self, frame: _Frame, parent: Optional[_Frame], text: str) -> None:
        target = frame.attrs.get("target")
        if target is None:
            self._warn("<rel> without a target; skipped", (frame.line, frame.column))
            return
        rel = Relation(target=strip_pointer(target), rel_type=frame.attrs.get("type"))
        if parent is not None and parent.tag in _ITEM_CONTAINERS:
            self._append_item(parent, rel)

    def _close_seg(self, frame: _Frame, parent: Optional[_Frame], text: str) -> None:
        if parent is None or parent.tag not in ("struct", "brack"):
            self._warn("<seg> in an unexpected position; ignored", (frame.line, frame.column))
            return
        self._append_item(parent, frame.pending_seg)
        if frame.items or frame.children:
            # Stand-off leniency: content nested inside <seg> belongs to the
            # nearest enclosing node, right after the reference itself.
            self._warn(
                "<seg> with element content; content attached to the enclosing node",
                (frame.line, frame.column),
            )
            owner = self._enclosing_struct(parent)
            for raw in frame.items:
                self._append_item(owner, raw)
            owner.children.extend(frame.children)

    def _enclosing_struct(self, frame: _Frame) -> _Frame:
        if frame.tag == "struct":
            return frame
        for candidate in reversed(self.stack):
            if candidate.tag == "struct":
                return candidate
        return frame

    def _close_brack(self, frame: _Frame, parent: Optional[_Frame], text: str) -> None:
        if text.strip():
            self._warn("<brack> contains stray text; ignored", (frame.line, frame.column))
        if frame.children:
            self._warn("<brack> cannot group nodes; nodes attached to the enclosing node", (frame.line, frame.column))
        brack = Bracket(members=self._finish_items(frame))
        if parent is not None and parent.tag in _ITEM_CONTAINERS:
            self._append_item(parent, brack)
            if frame.children:
                self._enclosing_struct(parent).children.extend(frame.children)

    def _close_endpoint(self, frame: _Frame, parent: Optional[_Frame], text: str) -> None:
        target = frame.attrs.get("target")
        if target is None:
            self._close_unknown(frame, parent, text)
            return
        if parent is None or parent.tag not in ("struct", "brack"):
            self._warn(f"<{frame.tag}> in an unexpected position; ignored", (frame.line, frame.column))
            return
        kind = "start" if frame.tag == "startsAt" else "end"
        self._append_item(parent, _EndpointMark(kind, strip_pointer(target), frame.line, frame.column))

    def _close_unknown(self, frame: _Frame, parent: Optional[_Frame], text: str) -> None:
        if frame.saw_elements or parent is None:
            self._warn(f"unknown element <{frame.tag}>; skipped", (frame.line, frame.column))
            return
        # Leaf elements outside the core tag set are read as features named
        # by the element, which keeps landmark descriptions parseable.
        self._emit_feature(self._leaf(frame.tag, text.strip()), parent)

    # -- item plumbing

    def _append_item(self, frame: _Frame, item: object) -> None:
        frame.items.append(item)
        frame.alt_run_open = False

    def _finish_items(self, frame: _Frame) -> tuple[NodeItem, ...]:
        """Resolve alt runs and pair landmark endpoints."""
        paired: list[object] = []
        open_starts: list[tuple[int, _EndpointMark]] = []
        for raw in frame.items:
            if isinstance(raw, _EndpointMark) and raw.kind == "start":
                open_starts.append((len(paired), raw))
                paired.append(raw)
            elif isinstance(raw, _EndpointMark):
                if open_starts:
                    index, start = open_starts.pop(0)
                    paired[index] = SegmentRef(LandmarkEndpoints(start.target, raw.target))
                else:
                    self._warn("<endsAt> without a matching <startsAt>; dropped", (raw.line, raw.column))
            else:
                paired.append(raw)
        items: list[NodeItem] = []
        for raw in paired:
            if isinstance(raw, _EndpointMark):
                self._warn("<startsAt> without a matching <endsAt>; dropped", (raw.line, raw.column))
            elif isinstance(raw, _AltRun):
                items.append(AltSet(tuple(raw.bundles)))
            else:
                items.append(raw)  # type: ignore[arg-type]
        return tuple(items)

    def _read_seg(self, attrs: dict[str, str], frame: _Frame) -> SegmentRef:
        for name in attrs:
            if name not in _SEG_ATTRS:
                self._warn(f"unknown attribute '{name}' on <seg>; ignored", (frame.line, frame.column))
        id_mode = "target" in attrs or "targets" in attrs
        start_raw = self._positional_attr(attrs, "startsAt", "startPosition", frame)
        end_raw = self._positional_attr(attrs, "endsAt", "endPosition", frame)
        if id_mode and (start_raw is not None or end_raw is not None):
            self._fail("<seg> mixes id and positional addressing; the modes are exclusive")
        if id_mode:
            ids: list[str] = []
            if "target" in attrs:
                ids.append(strip_pointer(attrs["target"]))
            if "targets" in attrs:
                ids.extend(strip_pointer(t) for t in attrs["targets"].split())
            return SegmentRef(IdTargets(tuple(ids)))
        if start_raw is not None or end_raw is not None:
            if start_raw is None or end_raw is None:
                self._fail("<seg> positional addressing needs both a start and an end")
            return SegmentRef(PositionalSpan(self._offset(start_raw), self._offset(end_raw)))
        self._warn("<seg> without any addressing", (frame.line, frame.column))
        return SegmentRef(IdTargets(()))

    def _positional_attr(self, attrs: dict[str, str], name: str, synonym: str, frame: _Frame) -> Optional[str]:
        if name in attrs and synonym in attrs:
            self._warn(f"both '{name}' and '{synonym}' given; '{name}' wins", (frame.line, frame.column))
            return attrs[name]
        return attrs.get(name, attrs.get(synonym))

    def _offset(self, raw: str) -> int:
        try:
            value = int(raw.strip())
        except ValueError:
            value = -1
        if value < 0:
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
            self.parser = None  # its handlers are bound methods: drop the cycle through self
        assert self.root is not None
        return GmtDocument(self.root), ParseDiagnostics(tuple(self.warnings))


_CLOSERS = {
    "struct": _GmtBuilder._close_struct, "feat": _GmtBuilder._close_feat, "alt": _GmtBuilder._close_alt,
    "rel": _GmtBuilder._close_rel, "seg": _GmtBuilder._close_seg, "brack": _GmtBuilder._close_brack,
    "startsAt": _GmtBuilder._close_endpoint, "endsAt": _GmtBuilder._close_endpoint,
}


def parse_gmt(text: str) -> tuple[GmtDocument, ParseDiagnostics]:
    """Read GMT XML into a document.

    Hard grammar violations (malformed XML, a segment mixing its
    addressing modes, bad offsets) raise :class:`GmtParseError` with a
    1-based position; recoverable oddities become diagnostics.
    """
    return _GmtBuilder().parse(text)


# ---------------------------------------------------------------------------
# serialization


def _attr(value: str) -> str:
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    return f'"{value}"'

def _content(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def serialize_gmt(doc: GmtDocument) -> str:
    """Write a document in canonical GMT XML.

    The document must pass :func:`validate_structure` with zero errors;
    otherwise serialization is refused.
    """
    report = validate_structure(doc)
    if not report.ok:
        first = report.errors[0]
        raise GmtSerializeError(f"invalid document: {first.code} at {first.path}: {first.message}")
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    _write_struct(doc.root, lines)
    return "\n".join(lines) + "\n"


def _struct_attrs(node: StructNode) -> str:
    parts = []
    if node.type is not None:
        parts.append(f"type={_attr(node.type)}")
    if node.id is not None:
        parts.append(f"id={_attr(node.id)}")
    if node.ref is not None:
        parts.append(f"ref={_attr('#' + node.ref)}")
    return (" " + " ".join(parts)) if parts else ""


def _write_struct(root: StructNode, lines: list[str]) -> None:
    """Append the element lines of ``root``'s subtree, in document order.

    Leaf elements are written as they are met; each open element keeps a
    frame on an explicit stack, so nesting depth is bounded by memory only.
    """
    # A frame: the values still to write, their indentation, and the
    # closing line of the element holding them (None for an alternative
    # set, whose bundles are the elements).
    stack: list[tuple[Iterator, str, Optional[str]]] = [(iter((root,)), "", None)]
    while stack:
        values, pad, closing = stack[-1]
        for value in values:
            if isinstance(value, Feature):
                if value.target is not None:
                    lines.append(f"{pad}<feat type={_attr(value.cat)} target={_attr('#' + value.target)}/>")
                    continue
                if value.nested is None:
                    text = value.text if value.text is not None else ""
                    lines.append(f"{pad}<feat type={_attr(value.cat)}>{_content(text)}</feat>")
                    continue
                tag, attrs, content = "feat", f" type={_attr(value.cat)}", value.nested
            elif isinstance(value, StructNode):
                tag, attrs, content = "struct", _struct_attrs(value), value.items + value.children
            elif isinstance(value, SegmentRef):
                _write_seg(value, pad, lines)
                continue
            elif isinstance(value, AltSet):
                stack.append((iter(value.alternatives), pad, None))
                break
            elif isinstance(value, tuple):  # one bundle of an alternative set
                tag, attrs, content = "alt", "", value
            elif isinstance(value, Relation):
                type_part = f" type={_attr(value.rel_type)}" if value.rel_type is not None else ""
                lines.append(f"{pad}<rel{type_part} target={_attr('#' + value.target)}/>")
                continue
            else:
                tag, attrs, content = "brack", "", value.members
            if not content:
                lines.append(f"{pad}<{tag}{attrs}/>")
                continue
            lines.append(f"{pad}<{tag}{attrs}>")
            stack.append((iter(content), pad + "  ", f"{pad}</{tag}>"))
            break
        else:
            stack.pop()
            if closing is not None:
                lines.append(closing)


def _write_seg(seg: SegmentRef, pad: str, lines: list[str]) -> None:
    addr = seg.addr
    if isinstance(addr, IdTargets):
        if len(addr.ids) == 1:
            lines.append(f"{pad}<seg target={_attr('#' + addr.ids[0])}/>")
        else:
            lines.append(f"{pad}<seg targets={_attr(' '.join(addr.ids))}/>")
    elif isinstance(addr, PositionalSpan):
        lines.append(f"{pad}<seg startsAt={_attr(str(addr.start))} endsAt={_attr(str(addr.end))}/>")
    else:
        lines.append(f"{pad}<startsAt target={_attr('#' + addr.start)}/>")
        lines.append(f"{pad}<endsAt target={_attr('#' + addr.end)}/>")
