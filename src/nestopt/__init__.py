"""Memory-access optimization passes over a small tensor loop-nest IR.

Importing the package loads none of its modules.  Each name below, and each
submodule, is imported on first access (PEP 562), so a command pays only
for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "affine": (
        "IntBox",
        "MapClass",
        "QuasiAffineExpr",
        "QuasiAffineMap",
        "affine_map",
        "compose",
        "identity_map",
        "image",
        "reverse",
        "variables",
    ),
    "bankmap": (
        "AnchorRegistry",
        "BankMapping",
        "materialize",
        "propagate",
        "run_global_mapping",
        "run_local_baseline",
        "seed_anchors",
        "transfer",
    ),
    "dme": ("run_dme", "try_eliminate_pair"),
    "generators": ("generate_resnet_analog", "generate_wavenet_analog"),
    "interp": ("TensorStore", "equivalent", "run"),
    "ir": ("OperatorNest", "Program", "TensorDecl", "dependence_edges", "find_copy_pairs", "validate"),
    "textual": ("parse", "print_program"),
    "traffic": ("account", "compare"),
}
_SUBMODULES = (*_EXPORTS, "cli", "report")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
