"""Toolkit for stand-off linguistic annotation in the GMT XML format.

Parse, validate, anchor-resolve, merge, diff and serialize stand-off
annotation documents, convert them to and from annotation graphs, and
check data categories against a registry with inheritance.

Each public name is imported from its submodule on first use (PEP 562), and
so is each submodule named in ``_EXPORTS``: importing the package, or running
one CLI command, loads only the submodules that it uses.  ``merge`` is bound
at import, because it names both a function and a submodule, and importing
the submodule would bind the package's ``merge`` to the module.
"""

from importlib import import_module

from .merge import merge

__version__ = "0.1.0"

#: Each public name, under the submodule that defines it.
_EXPORTS = {
    "agraph": (
        "DEFAULT_TYPE_MAP", "AgArc", "AnnotationGraph", "ag_to_gmt", "canonicalize_ag", "gmt_to_ag", "load_type_map",
        "parse_ag", "serialize_ag",
    ),
    "anchoring": (
        "PRIMARY", "LandmarkTable", "ResolvedSpan", "Token", "TokenIndex", "build_landmark_table", "derived_extent",
        "load_token_index", "resolve_seg", "tokenize_whitespace",
    ),
    "errors": (
        "AgParseError", "AnchorError", "BridgeError", "GmtError", "GmtParseError", "GmtSerializeError",
        "InvertedSpanError", "MergeError", "RegistryError", "TokenIndexError", "UnresolvedTargetError",
    ),
    "merge": (
        "BOTH_DIFFER", "BOTH_EQUAL", "DEDUP_IDENTICAL", "FOLD_TO_ALT", "KEEP_ALL", "ONLY_LEFT", "ONLY_RIGHT",
        "DiffEntry", "DiffReport", "MergePolicy", "anchor_key", "diff", "merge",
    ),
    "model": (
        "ERROR", "WARNING", "AltSet", "Bracket", "Bundle", "Feature", "Finding", "GmtDocument", "IdTargets",
        "LandmarkEndpoints", "NodeItem", "PositionalSpan", "Relation", "SegmentRef", "StructNode", "ValidationReport",
        "find_node", "select_preferred_alternative", "validate_structure",
    ),
    "registry": (
        "CategoryDef", "ClosedSet", "DecimalRange", "OpenText", "Reference", "Registry", "default_registry",
        "is_subcategory", "load_registry", "validate_categories",
    ),
    "xml_io": ("ParseDiagnostics", "ParseWarning", "parse_gmt", "serialize_gmt"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNERS)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # which binds it here
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_OWNERS[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
