"""Machine-readable run reports, schema version 1."""

from __future__ import annotations

from functools import cache
from typing import Any

import jsonschema

from . import __version__
from .bankmap import MappingReport
from .dme import DmeResult
from .ir import BankMapping
from .traffic import TrafficReport, compare

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
                "properties": {"pass": {"enum": ["dme", "bankmap"]}},
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
    doc = {
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
    validate_document(doc)
    return doc


@cache
def _validator() -> jsonschema.Draft202012Validator:
    """The schema is checked against its metaschema once, not per document."""
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
    return jsonschema.Draft202012Validator(REPORT_SCHEMA)


def validate_document(doc: dict) -> None:
    """Raise the error ``jsonschema.validate`` would pick if ``doc`` is invalid."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise error
