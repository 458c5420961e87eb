"""Traffic accounting and before/after comparison."""

import pytest

from nestopt.dme import run_dme
from nestopt.generators import generate_wavenet_analog
from nestopt.textual import parse
from nestopt.traffic import account, compare

ONCHIP_COPY = """\
tensor %src : 4x[1000] @sbuf
tensor %dst : 4x[1000] @sbuf

nest fill kind=other (i0 in 0..1000) {
  %z = load %src[i0]
  %o = max %z %z
  store %src[i0] = %o
}
"""


def test_copy_nest_between_onchip_counts_payload_once():
    src = """\
tensor %a : 4x[1000] @sbuf
tensor %b : 4x[1000] @sbuf

nest cp kind=copy (i0 in 0..1000) {
  %v = load %a[i0]
  store %b[i0] = %v
}
"""
    report = account(parse(src))
    assert report.on_chip_copy_bytes == 4000
    assert report.off_chip_bytes == 0


def test_copy_nest_with_offchip_source_is_offchip_traffic():
    src = """\
tensor %a : 4x[1000] @dram input
tensor %b : 4x[1000] @sbuf

nest cp kind=copy (i0 in 0..1000) {
  %v = load %a[i0]
  store %b[i0] = %v
}
"""
    report = account(parse(src))
    assert report.off_chip_bytes == 4000
    assert report.on_chip_copy_bytes == 0


def test_memcopy_payload_classification():
    src = """\
tensor %a : 4x[10] @dram input
tensor %b : 4x[10] @sbuf
tensor %c : 4x[10] @sbuf

nest stage kind=copy (i0 in 0..10) {
  %v = load %a[i0]
  store %b[i0] = %v
}

nest fix kind=copy (i0 in 0..10) {
  memcopy %c <- %b
}
"""
    program = parse(src)
    report = account(program)
    assert report.memcopies_inserted == 1
    assert report.on_chip_copy_bytes == 40
    assert report.off_chip_bytes == 40
    # reclassified when banks exchange data through main memory
    via_dram = account(program, interbank_via_dram=True)
    assert via_dram.on_chip_copy_bytes == 0
    assert via_dram.off_chip_bytes == 80


def test_count_all_onchip_widens_counter():
    report = account(parse(ONCHIP_COPY), count_all_onchip=True)
    # one load + one store of 4000 bytes each
    assert report.on_chip_copy_bytes == 8000
    assert account(parse(ONCHIP_COPY)).on_chip_copy_bytes == 0


def test_empty_program_all_zero():
    report = account(parse(""))
    assert report.off_chip_bytes == 0
    assert report.on_chip_copy_bytes == 0
    assert report.intermediate_tensor_bytes == 0
    assert report.copy_pairs_total == 0
    assert report.per_nest == ()


def test_intermediate_footprint():
    src = """\
tensor %a : 4x[8] @dram input
tensor %t : 2x[8] @sbuf
tensor %y : 4x[8] @dram output

nest s1 kind=copy (i0 in 0..8) {
  %v = load %a[i0]
  store %t[i0] = %v
}

nest s2 kind=copy (i0 in 0..8) {
  %v = load %t[i0]
  store %y[i0] = %v
}
"""
    assert account(parse(src)).intermediate_tensor_bytes == 16


def test_additivity_of_per_nest_breakdown():
    program = generate_wavenet_analog(6, 1, seed=4)
    report = account(program)
    assert report.off_chip_bytes == sum(n.off_chip_bytes for n in report.per_nest)
    assert report.on_chip_copy_bytes == sum(n.on_chip_copy_bytes for n in report.per_nest)


@pytest.mark.parametrize("seed", range(8))
def test_dme_never_adds_offchip_traffic(seed):
    program = generate_wavenet_analog(4 + seed % 5, seed % 2, seed=seed)
    before = account(program)
    result = run_dme(program)
    after = account(result.program)
    assert after.off_chip_bytes <= before.off_chip_bytes


def test_footprint_drop_matches_dme_records():
    program = generate_wavenet_analog(9, 2, seed=6)
    result = run_dme(program)
    before = account(program)
    after = account(result.program)
    eliminated_bytes = sum(r.bytes for r in result.eliminated)
    assert before.intermediate_tensor_bytes - after.intermediate_tensor_bytes == eliminated_bytes


def test_compare_percentages():
    src_before = """\
tensor %a : 4x[25] @sbuf
tensor %b : 4x[25] @sbuf

nest cp kind=copy (i0 in 0..25) {
  %v = load %a[i0]
  store %b[i0] = %v
}
"""
    src_after = """\
tensor %a : 4x[6] @sbuf
tensor %b : 4x[6] @sbuf

nest cp kind=copy (i0 in 0..6) {
  %v = load %a[i0]
  store %b[i0] = %v
}
"""
    before = account(parse(src_before))
    after = account(parse(src_after))
    assert before.on_chip_copy_bytes == 100
    assert after.on_chip_copy_bytes == 24
    delta = compare(before, after).fields["on_chip_copy_bytes"]
    assert delta.pct_change == -76.0


def test_compare_identical_reports():
    program = generate_wavenet_analog(3, 0, seed=1)
    report = account(program)
    cmp = compare(report, report)
    for d in cmp.fields.values():
        assert d.delta == 0
        assert d.pct_change in (0.0, None)


def test_compare_zero_baseline_gives_null():
    empty = account(parse(""))
    cmp = compare(empty, empty)
    assert cmp.fields["off_chip_bytes"].pct_change is None
