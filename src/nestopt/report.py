"""Machine-readable run reports, schema version 1.

``REPORT_SCHEMA`` is the published contract for every document that
``build_document`` returns, and ``validate_document`` checks a document
against it.  ``build_document`` does not call it: the test suite validates
every kind of document the CLI builds, so ``jsonschema`` is needed only to
run the tests or to check a document from elsewhere.

``document_text`` is the text the CLI writes for a document: exactly
``json.dumps(doc, indent=2)``, built without json's pure-Python encoder.
"""

from __future__ import annotations

from functools import cache
from json.encoder import INFINITY as _INFINITY
from json.encoder import encode_basestring_ascii as _encode_str
from typing import TYPE_CHECKING, Any

from . import __version__
from .bankmap import MappingReport
from .dme import DmeResult
from .ir import BankMapping
from .traffic import TrafficReport, compare

if TYPE_CHECKING:
    import jsonschema

SCHEMA_VERSION = 1

_MAPPING_SCHEMA = {
    "type": "object",
    "properties": {
        "axis": {"type": "integer", "minimum": 0},
        "banks": {"type": "integer", "minimum": 1},
        "policy": {"enum": ["cyclic", "blocked"]},
    },
    "required": ["axis", "banks", "policy"],
    "additionalProperties": False,
}

_TRAFFIC_SCHEMA = {
    "type": "object",
    "properties": {
        "off_chip_bytes": {"type": "integer", "minimum": 0},
        "on_chip_copy_bytes": {"type": "integer", "minimum": 0},
        "intermediate_tensor_bytes": {"type": "integer", "minimum": 0},
        "copy_pairs_total": {"type": "integer", "minimum": 0},
        "copy_pairs_eliminated": {"type": "integer", "minimum": 0},
        "memcopies_inserted": {"type": "integer", "minimum": 0},
        "per_nest": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "nest": {"type": "string"},
                    "off_chip_bytes": {"type": "integer"},
                    "on_chip_copy_bytes": {"type": "integer"},
                },
                "required": ["nest", "off_chip_bytes", "on_chip_copy_bytes"],
            },
        },
    },
    "required": [
        "off_chip_bytes",
        "on_chip_copy_bytes",
        "intermediate_tensor_bytes",
        "copy_pairs_total",
        "copy_pairs_eliminated",
        "memcopies_inserted",
    ],
}

_DELTA_SCHEMA = {
    "type": "object",
    "properties": {
        "before": {"type": "integer"},
        "after": {"type": "integer"},
        "delta": {"type": "integer"},
        "pct_change": {"type": ["number", "null"]},
    },
    "required": ["before", "after", "delta", "pct_change"],
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "tool": {
            "type": "object",
            "properties": {"name": {"type": "string"}, "version": {"type": "string"}},
            "required": ["name", "version"],
        },
        "pipeline": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {"pass": {"type": "string"}, "options": {"type": "object"}},
                "required": ["pass"],
            },
        },
        "passes": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "pass": {"enum": ["dme", "bankmap"]},
                    "inserted": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {"mapping_from": _MAPPING_SCHEMA, "mapping_to": _MAPPING_SCHEMA},
                        },
                    },
                    "assignments": {"type": "object", "additionalProperties": _MAPPING_SCHEMA},
                },
                "required": ["pass"],
            },
        },
        "traffic": {
            "type": "object",
            "properties": {
                "before": _TRAFFIC_SCHEMA,
                "after": {"anyOf": [_TRAFFIC_SCHEMA, {"type": "null"}]},
                "compare": {
                    "anyOf": [
                        {"type": "object", "additionalProperties": _DELTA_SCHEMA},
                        {"type": "null"},
                    ]
                },
            },
            "required": ["before", "after", "compare"],
        },
    },
    "required": ["schema", "tool", "pipeline", "passes", "traffic"],
}


def document_text(doc: Any) -> str:
    """``doc`` as JSON text, exactly ``json.dumps(doc, indent=2)``.

    ``json.dumps`` with an indent runs its pure-Python encoder; this writer
    appends the same text to one list and joins it once, about twice as fast
    on report documents.  Strings and keys go through the C
    ``encode_basestring_ascii``, so non-ASCII text is escaped; ints are
    written with ``int.__repr__`` and floats as json writes them.  Tuples
    are written as lists and keys in insertion order.  A key that is not a
    ``str`` raises TypeError, as does a value json cannot encode.
    """
    parts: list[str] = []
    _write_value(doc, "\n", parts)
    return "".join(parts)


# The writers are module-level functions, not closures: a nested function
# that calls itself is a reference cycle, which would keep every appended
# part alive until the cyclic garbage collector runs.

_CONTAINERS = (dict, list, tuple)
# the two types most report values have, looked up by exact type; every
# other value, subclasses of these included, goes through _scalar_text
_EXACT_TEXT = {str: _encode_str, int: int.__repr__}


def _write_value(value: Any, newline: str, parts: list[str]) -> None:
    """Append ``value``'s text; ``newline`` is a line break plus the current indent."""
    if isinstance(value, dict):
        _write_dict(value, newline, parts)
    elif isinstance(value, (list, tuple)):
        _write_list(value, newline, parts)
    else:
        parts.append(_scalar_text(value))


def _write_dict(obj: dict, newline: str, parts: list[str]) -> None:
    if not obj:
        parts.append("{}")
        return
    inner = newline + "  "
    sep, comma = "{" + inner, "," + inner
    for key, value in obj.items():
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        write = _EXACT_TEXT.get(type(value))
        if write is not None:
            parts.append(sep + _encode_str(key) + ": " + write(value))
        elif isinstance(value, _CONTAINERS):
            parts.append(sep + _encode_str(key) + ": ")
            _write_value(value, inner, parts)
        else:
            parts.append(sep + _encode_str(key) + ": " + _scalar_text(value))
        sep = comma
    parts.append(newline + "}")


def _write_list(items: list | tuple, newline: str, parts: list[str]) -> None:
    if not items:
        parts.append("[]")
        return
    inner = newline + "  "
    sep, comma = "[" + inner, "," + inner
    for value in items:
        write = _EXACT_TEXT.get(type(value))
        if write is not None:
            parts.append(sep + write(value))
        elif isinstance(value, _CONTAINERS):
            parts.append(sep)
            _write_value(value, inner, parts)
        else:
            parts.append(sep + _scalar_text(value))
        sep = comma
    parts.append(newline + "]")


def _scalar_text(value: Any) -> str:
    """The text json writes for a value that is not a container, in json's order of checks."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def mapping_to_json(m: BankMapping) -> dict:
    return {"axis": m.axis, "banks": m.banks, "policy": m.policy.value}


def dme_pass_entry(result: DmeResult) -> dict:
    return {
        "pass": "dme",
        "sweeps": result.sweeps,
        "eliminated": [
            {"tensor": r.tensor, "bytes": r.bytes, "rewritten_loads": r.rewritten_loads}
            for r in result.eliminated
        ],
        "skipped": [
            {"tensor": r.tensor, "reason": r.skipped.value, "detail": r.detail}
            for r in result.skipped
        ],
    }


def bankmap_pass_entry(report: MappingReport, banks: int) -> dict:
    return {
        "pass": "bankmap",
        "mode": report.mode,
        "banks": banks,
        "inserted": [
            {
                "tensor": c.tensor,
                "new_tensor": c.new_tensor,
                "nest": c.nest,
                "bytes": c.bytes,
                "mapping_from": mapping_to_json(c.mapping_from),
                "mapping_to": mapping_to_json(c.mapping_to),
                "consumers": list(c.consumers),
            }
            for c in report.inserted
        ],
        "assignments": {t: mapping_to_json(m) for t, m in sorted(report.assignments.items())},
        "defaulted": list(report.defaulted),
        "conflicts": list(report.conflicts),
        "ignored_offchip_conflicts": list(report.ignored_offchip),
    }


def build_document(
    pipeline: list[dict],
    passes: list[dict],
    before: TrafficReport,
    after: TrafficReport | None,
) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "nestopt", "version": __version__},
        "pipeline": pipeline,
        "passes": passes,
        "traffic": {
            "before": before.to_json(),
            "after": after.to_json() if after is not None else None,
            "compare": compare(before, after).to_json() if after is not None else None,
        },
    }


@cache
def _validator() -> jsonschema.Draft202012Validator:
    """The schema is checked against its metaschema once, not per document.

    ``jsonschema`` is imported here, not at module level, so that importing
    this module does not need it.
    """
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
    return jsonschema.Draft202012Validator(REPORT_SCHEMA)


def validate_document(doc: dict) -> None:
    """Raise the error ``jsonschema.validate`` would pick if ``doc`` is invalid."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(doc))
    if error is not None:
        raise error
