"""Validation of report documents against ``nestopt.report.REPORT_SCHEMA``.

Only the tests validate documents, so ``jsonschema`` is a test dependency
and no module of the package imports it.
"""

from functools import cache

import jsonschema
from jsonschema.exceptions import best_match

from nestopt.report import REPORT_SCHEMA


@cache
def _validator() -> jsonschema.Draft202012Validator:
    """The schema is checked against its metaschema once, not per document."""
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
    return jsonschema.Draft202012Validator(REPORT_SCHEMA)


def validate_document(doc: dict) -> None:
    """Raise the error ``jsonschema.validate`` would pick if ``doc`` is invalid."""
    error = best_match(_validator().iter_errors(doc))
    if error is not None:
        raise error
