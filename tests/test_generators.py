"""Benchmark generators: determinism, structure, pass interplay."""

import hashlib

import pytest

from nestopt.affine import identity_map
from nestopt.bankmap import run_global_mapping, run_local_baseline
from nestopt.dme import run_dme
from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.ir import Load, Store, find_copy_pairs, validate
from nestopt.textual import parse, print_program

from test_bankmap import MATCHING_REGISTRY


@pytest.mark.parametrize("pairs,noninv,seed", [(0, 0, 0), (5, 5, 1), (12, 2, 7), (24, 1, 3)])
def test_wavenet_analog_wellformed(pairs, noninv, seed):
    program = generate_wavenet_analog(pairs, noninv, seed)
    assert validate(program) == []
    assert len(find_copy_pairs(program)) == pairs
    result = run_dme(program)
    assert len(result.eliminated) == pairs - noninv
    assert len(result.skipped) == noninv


def test_wavenet_analog_deterministic():
    a = print_program(generate_wavenet_analog(16, 2, seed=42))
    b = print_program(generate_wavenet_analog(16, 2, seed=42))
    assert a == b
    c = print_program(generate_wavenet_analog(16, 2, seed=43))
    assert a != c


# sha256 of the printed programs over each grid, in grid order: any change to
# a generated byte, or to the order the generators draw from their rng, shows
GENERATOR_GRIDS = [
    (
        generate_wavenet_analog,
        [(0, 0), (1, 1), (6, 0), (13, 2), (40, 4)],
        "0d846e9ce5a5f169e11bef94254c1a259566c67285adc1dc5da443a4f6dd9b47",
    ),
    (
        generate_resnet_analog,
        [(1, 0), (1, 2), (2, 1), (3, 0), (5, 3)],
        "9854db088175ef302f30981ad75336f004be5b933377dffabe49b914632de003",
    ),
]


@pytest.mark.parametrize("generate,grid,digest", GENERATOR_GRIDS, ids=["wavenet", "resnet"])
def test_generated_bytes_are_pinned(generate, grid, digest):
    h = hashlib.sha256()
    for args in grid:
        for seed in range(6):
            h.update(print_program(generate(*args, seed)).encode())
    assert h.hexdigest() == digest


def test_wavenet_zero_pairs_is_pure_compute():
    program = generate_wavenet_analog(0, 0, seed=5)
    assert find_copy_pairs(program) == []
    result = run_dme(program)
    assert result.program == program


def test_wavenet_reparses():
    program = generate_wavenet_analog(20, 3, seed=11)
    text = print_program(program)
    assert parse(text) == program


def test_resnet_analog_deterministic():
    a = print_program(generate_resnet_analog(4, 2, seed=9))
    b = print_program(generate_resnet_analog(4, 2, seed=9))
    assert a == b


@pytest.mark.parametrize("blocks,transposes", [(1, 0), (1, 3), (2, 0), (4, 1), (5, 2)])
def test_resnet_analog_wellformed(blocks, transposes):
    program = generate_resnet_analog(blocks, transposes, seed=1)
    assert validate(program) == []
    convs = [n for n in program.nests if n.kind == "conv2d"]
    assert len(convs) == blocks
    trs = [n for n in program.nests if n.kind == "transpose"]
    if blocks == 1 and transposes == 0:
        assert trs == []
    else:
        assert len(trs) == blocks * transposes


def test_resnet_single_block_no_transposes_inserts_nothing():
    program = generate_resnet_analog(1, 0, seed=2)
    assert len(program.nests) == 1
    _, _, g_report = run_global_mapping(program)
    _, l_report = run_local_baseline(program)
    assert g_report.inserted == ()
    assert l_report.inserted == ()


def test_resnet_local_pays_every_boundary_global_none():
    program = generate_resnet_analog(4, 1, seed=2)
    _, _, g_report = run_global_mapping(program)
    _, l_report = run_local_baseline(program)
    assert len(l_report.inserted) >= 4
    assert g_report.inserted_bytes < l_report.inserted_bytes


def test_resnet_matching_registry_propagates_cleanly():
    # with agreeing templates the whole two-block chain settles with no copies
    program = generate_resnet_analog(2, 0, seed=4)
    _, state, g_report = run_global_mapping(program, MATCHING_REGISTRY)
    assert state.conflicts() == ()
    assert g_report.inserted == ()


@pytest.mark.parametrize(
    "generate,args,argument",
    [
        (generate_resnet_analog, (0, 0), "blocks"),
        (generate_resnet_analog, (1, -1), "transposes_between"),
        (generate_resnet_analog, (2, -3), "transposes_between"),
        (generate_wavenet_analog, (-1, 0), "copy_pairs"),
        (generate_wavenet_analog, (5, -1), "non_invertible"),
        (generate_wavenet_analog, (2, 3), "non_invertible"),
    ],
)
def test_generators_reject_out_of_range_arguments(generate, args, argument):
    with pytest.raises(ValueError, match=f"^{argument} must be"):
        generate(*args, 0)


def _accesses(program):
    return [(nest, s) for nest in program.nests for s in nest.body if isinstance(s, (Load, Store))]


def test_resnet_shares_its_identity_and_transpose_maps():
    program = generate_resnet_analog(8, 3, 0)
    identities = {id(s.access) for n, s in _accesses(program) if s.access == identity_map(n.box)}
    transposes = {id(s.access) for n, s in _accesses(program) if n.kind == "transpose" and isinstance(s, Store)}
    assert len(identities) == 1
    assert len(transposes) == 1
    assert len({id(n.box) for n in program.nests}) == 1


def test_wavenet_holds_one_identity_map_per_distinct_box():
    program = generate_wavenet_analog(60, 6, 3)
    identities = {}
    for nest, s in _accesses(program):
        if s.access == identity_map(nest.box):
            identities.setdefault(nest.box, set()).add(id(s.access))
    assert len(identities) > 5
    assert all(len(ids) == 1 for ids in identities.values())
    # equal boxes are one object as well
    assert len({id(n.box) for n in program.nests}) == len({n.box for n in program.nests})
