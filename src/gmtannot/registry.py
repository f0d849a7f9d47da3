"""A simplified data category registry.

Categories are declared in a line-based file, carry a value constraint
and may name a single parent category, giving sub-class inheritance.
Scheme-specific names are mapped onto canonical categories through
aliases.  The registry governs feature categories only; structural node
types are an open vocabulary.

File format (UTF-8, ``#`` comments)::

    name [parent=<name>] kind=<open|set:a,b,c|range:lo..hi|ref> [alias=x,y]
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Union

from .errors import RegistryError
from .model import Feature, GmtDocument, Record, ValidationReport, _data_lines, _decimal, _set, _validate

if TYPE_CHECKING:
    from decimal import Decimal


class OpenText(Record):
    """Any literal value is acceptable."""
    __slots__ = ()


class ClosedSet(Record):
    """The value must be one of a fixed set of strings."""
    __slots__ = ("values",)

    def __init__(self, values: tuple[str, ...]) -> None:
        _set(self, "values", values)


class DecimalRange(Record):
    """The value must parse as a decimal within [lo, hi]."""
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Decimal, hi: Decimal) -> None:
        _set(self, "lo", lo)
        _set(self, "hi", hi)


class Reference(Record):
    """The value is supplied by a target object in another document."""
    __slots__ = ()


ValueKind = Union[OpenText, ClosedSet, DecimalRange, Reference]


class CategoryDef(Record):
    __slots__ = ("name", "kind", "parent", "aliases")

    def __init__(self, name: str, kind: ValueKind, parent: Optional[str] = None, aliases: tuple[str, ...] = ()) -> None:
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "parent", parent)
        _set(self, "aliases", aliases)


class Registry(Record):
    """Immutable map of category definitions with alias resolution."""
    __slots__ = ("categories", "_aliases")

    def __init__(self, categories: Optional[dict[str, CategoryDef]] = None) -> None:
        _set(self, "categories", {} if categories is None else categories)
        _set(self, "_aliases", {alias: cat.name for cat in self.categories.values() for alias in cat.aliases})

    def __len__(self) -> int:
        return len(self.categories)

    def resolve(self, name: str) -> Optional[CategoryDef]:
        """Look up a category by canonical name or alias."""
        if name in self.categories:
            return self.categories[name]
        canonical = self._aliases.get(name)
        return self.categories.get(canonical) if canonical is not None else None


def load_registry(text: str) -> Registry:
    """Parse a registry file, checking every structural invariant.

    Duplicate names or aliases, unknown parents, inheritance cycles and
    malformed lines are load errors carrying the offending line number.
    Parents may be declared after their children.
    """
    categories: dict[str, CategoryDef] = {}
    alias_owner: dict[str, str] = {}
    lines_by_name: dict[str, int] = {}
    for lineno, line in _data_lines(text):
        cat = _parse_line(line, lineno)
        if cat.name in categories:
            raise RegistryError(f"duplicate category '{cat.name}'", lineno)
        for alias in cat.aliases:
            if alias in alias_owner:
                raise RegistryError(f"alias '{alias}' already maps to '{alias_owner[alias]}'", lineno)
            alias_owner[alias] = cat.name
        categories[cat.name] = cat
        lines_by_name[cat.name] = lineno
    for name, cat in categories.items():
        if cat.parent is not None and cat.parent not in categories:
            raise RegistryError(f"unknown parent '{cat.parent}' for '{name}'", lines_by_name[name])
        if cat.aliases and any(alias in categories for alias in cat.aliases):
            clash = next(a for a in cat.aliases if a in categories)
            raise RegistryError(f"alias '{clash}' clashes with a category name", lines_by_name[name])
    for name in categories:
        seen = {name}
        current = categories[name].parent
        while current is not None:
            if current in seen:
                raise RegistryError(f"inheritance cycle through '{current}'", lines_by_name[name])
            seen.add(current)
            current = categories[current].parent
    return Registry(categories)


def _parse_line(line: str, lineno: int) -> CategoryDef:
    parts = line.split()
    name = parts[0]
    parent: Optional[str] = None
    kind: Optional[ValueKind] = None
    aliases: tuple[str, ...] = ()
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise RegistryError(f"malformed token {part!r}", lineno)
        if key == "parent":
            parent = value
        elif key == "kind":
            kind = _parse_kind(value, lineno)
        elif key == "alias":
            aliases = tuple(a for a in value.split(",") if a)
        else:
            raise RegistryError(f"unknown key {key!r}", lineno)
    if kind is None:
        raise RegistryError(f"category '{name}' has no kind", lineno)
    return CategoryDef(name=name, kind=kind, parent=parent, aliases=aliases)


def _parse_kind(value: str, lineno: int) -> ValueKind:
    if value == "open":
        return OpenText()
    if value == "ref":
        return Reference()
    if value.startswith("set:"):
        members = tuple(m for m in value[4:].split(",") if m)
        if not members:
            raise RegistryError("closed set must not be empty", lineno)
        return ClosedSet(members)
    if value.startswith("range:"):
        lo_raw, sep, hi_raw = value[6:].partition("..")
        if not sep:
            raise RegistryError("range needs the form lo..hi", lineno)
        lo, hi = _decimal(lo_raw), _decimal(hi_raw)
        if lo is None or hi is None:
            raise RegistryError(f"range bounds {value[6:]!r} are not decimals", lineno)
        if lo > hi:
            raise RegistryError("range lower bound exceeds upper bound", lineno)
        return DecimalRange(lo, hi)
    raise RegistryError(f"unknown kind {value!r}", lineno)


def default_registry() -> Registry:
    """The registry bundled with the package."""
    # Read by the loader that read this module, from a directory or a zip file alike: importlib.resources would
    # import tempfile and zipfile, and on Python 3.12 inspect.
    path = os.path.join(os.path.dirname(__file__), "data", "default_registry.txt")
    return load_registry(__spec__.loader.get_data(path).decode("utf-8"))


def is_subcategory(registry: Registry, child: str, ancestor: str) -> bool:
    """True iff ancestor is reachable from child via parent links.

    Reflexive and transitive; both names may be aliases.  Unknown names
    are an error.
    """
    child_def = registry.resolve(child)
    if child_def is None:
        raise RegistryError(f"unknown category '{child}'")
    ancestor_def = registry.resolve(ancestor)
    if ancestor_def is None:
        raise RegistryError(f"unknown category '{ancestor}'")
    current: Optional[CategoryDef] = child_def
    while current is not None:
        if current.name == ancestor_def.name:
            return True
        current = registry.categories.get(current.parent) if current.parent else None
    return False


def validate_categories(doc: GmtDocument, registry: Registry) -> ValidationReport:
    """Check every feature of a document against the registry.

    Unknown categories (after alias resolution) and values violating the
    category's kind become error findings.  Structural node types are
    not checked.
    """
    return ValidationReport(tuple(_validate(doc, False, lambda feat: _check_feature(feat, registry))[1]))


def _check_feature(feat: Feature, registry: Registry) -> Optional[tuple[str, str]]:
    """``(code, message)`` when the feature's category is unknown or its value violates the kind."""
    cat = registry.resolve(feat.cat)
    if cat is None:
        return ("UNKNOWN_CATEGORY", f"category '{feat.cat}' is not in the registry")
    kind = cat.kind
    if isinstance(kind, OpenText):
        return None
    if isinstance(kind, Reference):
        if feat.target is None:
            return (
                "VALUE_KIND_MISMATCH",
                f"category '{cat.name}' takes its value by reference; expected a target",
            )
        return None
    if feat.text is None:
        return ("VALUE_KIND_MISMATCH", f"category '{cat.name}' expects a literal value")
    if isinstance(kind, ClosedSet):
        if feat.text not in kind.values:
            return (
                "VALUE_NOT_IN_SET",
                f"value {feat.text!r} is not one of {{{', '.join(kind.values)}}} for '{cat.name}'",
            )
        return None
    value = _decimal(feat.text)
    if value is None:
        return ("VALUE_NOT_DECIMAL", f"value {feat.text!r} is not a decimal for '{cat.name}'")
    if value < kind.lo or value > kind.hi:
        return (
            "VALUE_OUT_OF_RANGE",
            f"value {feat.text} is outside [{kind.lo}, {kind.hi}] for '{cat.name}'",
        )
    return None
