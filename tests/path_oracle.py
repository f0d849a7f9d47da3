"""The element walk that the tests check the library's paths against.

It computes every element's path on its own, as a linked tuple, by the
rules of "Element paths" in ``docs/formats.md``; the library names nodes and
findings with ``gmtannot.model._render`` instead, and never builds these
tuples.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from gmtannot.model import (
    AltSet,
    Bracket,
    Feature,
    GmtDocument,
    NodeItem,
    Relation,
    SegmentRef,
    StructNode,
)

#: An element's address as a linked ``(parent, tag, position)`` tuple; the
#: parent of a root node is None.  :func:`render_path` spells it out.
ElementPath = tuple
#: The model value an element sits in: a node, bracket, alternative set
#: (for bundle members) or feature (for nested features); None for a root.
Owner = Union[None, StructNode, Bracket, AltSet, Feature]
Element = Union[StructNode, NodeItem]

_TAGS = {StructNode: "struct", Feature: "feat", Relation: "rel", SegmentRef: "seg", Bracket: "brack", AltSet: "alt"}


def walk_elements(doc: GmtDocument) -> Iterator[tuple[ElementPath, Owner, Element]]:
    """Yield ``(path, owner, element)`` for every element in document order.

    Elements are nodes, items, alternative-bundle members, bracket members
    and nested features, in the order :func:`~gmtannot.xml_io.serialize_gmt`
    writes them.  Positions count per tag within the owner.  An alternative
    set takes the position of its first ``<alt>`` and advances ``alt`` by
    its bundle count; each bundle's members sit under their own ``<alt>``.
    The walk keeps an explicit stack, so nesting depth is bounded by memory
    only.
    """
    # One frame per open owner: its members still to visit, its path, the
    # owner itself and the per-tag counts so far.
    stack: list[tuple[Iterator, Optional[ElementPath], Owner, dict[str, int]]] = [
        (iter((doc.root,)), None, None, {})
    ]
    while stack:
        members, parent, owner, counts = stack[-1]
        for member in members:
            tag = _TAGS[type(member)]
            position = counts.get(tag, 0) + 1
            counts[tag] = position + len(member.alternatives) - 1 if tag == "alt" else position
            path = (parent, tag, position)
            yield path, owner, member
            if tag == "alt":
                for k in range(len(member.alternatives) - 1, -1, -1):
                    stack.append((iter(member.alternatives[k]), (parent, "alt", position + k), member, {}))
                break
            inner = (
                member.items + member.children if tag == "struct"
                else member.nested if tag == "feat"
                else member.members if tag == "brack"
                else None
            )
            if inner:
                stack.append((iter(inner), path, member, {}))
                break
        else:
            stack.pop()


def render_path(path: ElementPath) -> str:
    """The XPath-like string form of a path, such as ``/struct[1]/alt[2]/feat[1]``."""
    parts = []
    while path is not None:
        path, tag, position = path
        parts.append(f"/{tag}[{position}]")
    return "".join(reversed(parts))

