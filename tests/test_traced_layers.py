"""The benchmark's tracer wraps nestopt functions by module and name; each
of those names must still exist, or traced runs would stop at set-up, and
each wrapper must be what the program then calls, or its layer reads zero."""

import importlib
from pathlib import Path

import nestopt
import nestopt.cli

REPO = Path(__file__).resolve().parents[1]

# What ``nestopt`` exported when it imported every module up front.
EXPORTS = {
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

# A command that calls each name the tracer wraps in ``nestopt.cli``.
OPTIMIZE = ["optimize", "r.ir", "--pass", "dme", "-o", "o.ir", "--report", "o.json"]
COMMANDS = {
    "main": ["verify", "r.ir", "r.ir"],
    "parse": OPTIMIZE,
    "validate": OPTIMIZE,
    "print_program": OPTIMIZE,
    "account": OPTIMIZE,
    "build_document": OPTIMIZE,
    "run_dme": OPTIMIZE,
    "run_local_baseline": ["optimize", "r.ir", "--pass", "bankmap", "--mode", "local", "-o", "o.ir"],
    "equivalent": ["verify", "r.ir", "r.ir"],
}


def _layers(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    return importlib.import_module("perfbench.spans").LAYERS


def test_every_traced_layer_resolves(monkeypatch):
    layers = _layers(monkeypatch)
    missing = [
        (module, attr)
        for module, attr, _ in layers
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert layers and missing == []


def test_a_name_patched_on_the_cli_is_what_its_command_calls(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert nestopt.cli.main(["gen", "resnet", "2", "1", "-o", "r.ir"]) == 0
    names = [attr for module, attr, _ in _layers(monkeypatch) if module == "nestopt.cli"]
    assert names and set(names) <= set(COMMANDS)
    for name in names:
        calls = []
        original = getattr(nestopt.cli, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(nestopt.cli, name, counting)
            assert nestopt.cli.main(COMMANDS[name]) == 0
        assert calls, name


def test_the_package_still_exports_every_name_from_its_module():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"nestopt.{module}")
        assert getattr(nestopt, module) is home
        for name in names:
            assert name in dir(nestopt)
            scope = {}
            exec(f"from nestopt import {name} as value", scope)
            assert scope["value"] is getattr(home, name), name
