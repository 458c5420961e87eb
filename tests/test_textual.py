"""Parser / printer round-trips and diagnostics."""

import pathlib
import re

import pytest

import nestopt.textual as textual
from nestopt.affine import IntBox, QuasiAffineExpr, affine_map, variables
from nestopt.bankmap import run_global_mapping, run_local_baseline
from nestopt.dme import run_dme
from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.ir import (
    BankMapping,
    BankPolicy,
    Compute,
    Load,
    Memcopy,
    OffChip,
    OnChip,
    OperatorNest,
    Origin,
    Program,
    Store,
    TensorDecl,
    validate,
)
from nestopt.textual import ParseError, parse, parse_expr, print_expr, print_program

GOLDEN = pathlib.Path(__file__).parent / "golden"

MINIMAL = """\
tensor %t0 : 4x[2, 3] @dram input
tensor %t1 : 4x[3, 2] @sbuf

nest tr kind=transpose (i0 in 0..2, i1 in 0..3) {
  %v = load %t0[i0, i1]
  store %t1[i1, i0] = %v
}
"""


def test_parse_minimal_transpose():
    p = parse(MINIMAL)
    assert len(p.nests) == 1
    assert len(p.tensors) == 2
    assert p.nests[0].kind == "transpose"


def test_print_is_canonical_fixed_point():
    p = parse(MINIMAL)
    text = print_program(p)
    assert text == MINIMAL
    assert parse(text) == p


FULL = """\
tensor %x : 4x[4, 8] @dram input
tensor %w : 2x[32] @sbuf banked(axis=0, banks=8, policy=cyclic)
tensor %acc : 4x[4, 8] @sbuf banked(axis=1, banks=4, policy=blocked)
tensor %z : 2x[32] @sbuf
tensor %y : 4x[32] @dram output

nest flat kind=reshape (i0 in 0..4, i1 in 0..8) {
  %v = load %x[i0, i1]
  store %w[8*i0 + i1] = %v
}

nest unflat kind=reshape (i0 in 0..32) {
  %v = load %w[i0]
  store %acc[(i0) floordiv 8, (i0) mod 8] = %v
}

nest fold kind=elementwise (i0 in 0..4, i1 in 0..8) {
  %a = load %acc[i0, i1]
  %b = load %x[i0, i1]
  %c = add %a %b
  %d = neg %c
  store %y[8*i0 + i1] = %d
}

nest fill kind=copy (i0 in 0..32) {
  memcopy %z <- %w
}
"""


def test_full_round_trip():
    p = parse(FULL)
    text = print_program(p)
    assert parse(text) == p
    # a second print is byte-stable
    assert print_program(parse(text)) == text


def test_expr_round_trips():
    cases = [
        "0",
        "i0",
        "-i1 + 4",
        "3*i0 + i2 - 7",
        "(i0 + i1) floordiv 4",
        "(2*i0 - 3) mod 5",
        "2*((i0) floordiv 4) - i1",
    ]
    for text in cases:
        e = parse_expr(text, 3)
        printed = print_expr(e)
        assert parse_expr(printed, 3) == e


def test_expr_canonical_mod_expansion():
    # mod is canonicalized through the floor/mod law
    e = parse_expr("(i0) mod 4", 1)
    (x,) = variables(1)
    assert e == x - 4 * x.floordiv(4)


def test_parse_error_unbalanced_brace():
    src = MINIMAL.replace("}\n", "")
    with pytest.raises(ParseError) as err:
        parse(src)
    assert "never closed" in str(err.value)


def test_parse_error_bad_statement_line_number():
    src = MINIMAL.replace("  store %t1[i1, i0] = %v", "  blam %t1")
    with pytest.raises(ParseError) as err:
        parse(src)
    assert err.value.line == 6


def test_parse_error_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_expr("i5", 2)
    assert "unknown loop variable" in str(err.value)


def test_parse_error_depth_two():
    with pytest.raises(ParseError):
        parse_expr("((i0) floordiv 2) floordiv 3", 1)


def test_parentheses_nest_at_most_the_cap():
    cap = textual.MAX_PAREN_DEPTH
    assert parse_expr("(" * cap + "i0" + ")" * cap, 1) == parse_expr("i0", 1)
    with pytest.raises(ParseError) as err:
        parse_expr("(" * 5000 + "i0" + ")" * 5000, 1, line=3, col0=7)
    assert (err.value.line, err.value.col) == (3, 7 + cap)
    assert f"parentheses nested deeper than {cap}" in str(err.value)


def test_parse_error_junk_token():
    with pytest.raises(ParseError):
        parse_expr("i0 $ 3", 1)


def test_comments_and_blank_lines_ignored():
    src = "# header\n\n" + MINIMAL.replace("  %v = load", "  # body comment\n  %v = load")
    assert parse(src) == parse(MINIMAL)


def test_parsed_program_validates():
    assert validate(parse(FULL)) == []


def test_golden_corpus_round_trips_byte_exact():
    files = sorted(GOLDEN.glob("*.ir"))
    assert len(files) >= 5
    for path in files:
        text = path.read_text()
        program = parse(text)
        assert print_program(program) == text, path.name
        assert parse(print_program(program)) == program, path.name



# ---------------------------------------------------------------------------
# Reference parser: the expression-algebra parser that normalized after every
# operator and rebuilt every access, kept to pin the memoized one-pass parser
# to the same programs and the same errors.  Its only change is that access
# columns count from the start of the raw line.


class _RefExprParser:
    def __init__(self, toks, arity, line, end_col):
        self.toks = toks
        self.arity = arity
        self.line = line
        self.end_col = end_col
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, self.end_col)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_sym(self, sym):
        kind, val, col = self.take()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected '{sym}'", self.line, col)

    def parse(self):
        e = self.parse_sum()
        kind, val, col = self.peek()
        if kind is not None:
            raise ParseError(f"trailing '{val}' in expression", self.line, col)
        return e

    def parse_sum(self):
        e = self.parse_term(allow_sign=True)
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                rhs = self.parse_term(allow_sign=False)
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def parse_term(self, allow_sign):
        sign = 1
        kind, val, col = self.peek()
        if allow_sign and kind == "sym" and val == "-":
            self.take()
            sign = -1
            kind, val, col = self.peek()
        if kind == "int":
            self.take()
            k = int(val)
            nk, nv, _ = self.peek()
            if nk == "sym" and nv == "*":
                self.take()
                return sign * k * self.parse_factor()
            return QuasiAffineExpr(tuple(0 for _ in range(self.arity)), sign * k)
        return sign * self.parse_factor()

    def parse_factor(self):
        kind, val, col = self.take()
        if kind == "var":
            idx = int(val[1:])
            if idx >= self.arity:
                raise ParseError(f"unknown loop variable {val}", self.line, col)
            return QuasiAffineExpr(tuple(1 if j == idx else 0 for j in range(self.arity)))
        if kind == "sym" and val == "(":
            inner = self.parse_sum()
            self.expect_sym(")")
            nk, nv, ncol = self.peek()
            if nk == "op":
                self.take()
                dk, dv, dcol = self.take()
                if dk != "int":
                    raise ParseError(f"expected divisor after '{nv}'", self.line, dcol)
                d = int(dv)
                if d <= 0:
                    raise ParseError("divisor must be positive", self.line, dcol)
                try:
                    return inner.floordiv(d) if nv == "floordiv" else inner.mod(d)
                except ValueError as exc:
                    raise ParseError(str(exc), self.line, ncol) from None
            return inner
        raise ParseError("expected a loop variable, constant or '('", self.line, col)


def _ref_parse_expr(text, arity, line=1, col0=1):
    toks = textual._tokenize_expr(text, line, col0)
    return _RefExprParser(toks, arity, line, col0 + len(text)).parse()


def _ref_parse_access(exprs_text, box, line, col0):
    exprs = []
    col = col0
    for part in exprs_text.split(",") if exprs_text.strip() else ():
        lead = len(part) - len(part.lstrip())
        exprs.append(_ref_parse_expr(part.strip(), box.ndim, line, col + lead))
        col += len(part) + 1
    if not exprs:
        raise ParseError("access needs at least one index expression", line)
    return affine_map(box, exprs)


def _ref_parse(text):
    tensors, nests, current = [], [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if current is None:
            m = textual._TENSOR_RE.match(line)
            if m:
                name, es, shape_text, loc, axis, banks, policy, origin = m.groups()
                try:
                    shape = tuple(int(s.strip()) for s in shape_text.split(",") if s.strip())
                except ValueError:
                    raise ParseError(f"bad tensor extents '{shape_text}'", lineno) from None
                if not shape:
                    raise ParseError("tensor needs at least one extent", lineno)
                if loc == "dram":
                    if axis is not None:
                        raise ParseError("@dram tensors cannot be banked", lineno)
                    location = OffChip()
                else:
                    mapping = None
                    if axis is not None:
                        try:
                            mapping = BankMapping(int(axis), int(banks), BankPolicy(policy))
                        except ValueError as exc:
                            raise ParseError(str(exc), lineno) from None
                    location = OnChip(mapping)
                org = {None: Origin.INTERMEDIATE, "input": Origin.MODEL_INPUT, "output": Origin.MODEL_OUTPUT}
                tensors.append(TensorDecl(name, int(es), shape, location, org[origin]))
                continue
            m = textual._NEST_RE.match(line)
            if m:
                name, kind, loops_text = m.groups()
                los, his = [], []
                specs = [s.strip() for s in loops_text.split(",") if s.strip()]
                for j, spec in enumerate(specs):
                    lm = textual._LOOP_RE.match(spec)
                    if lm is None:
                        raise ParseError(f"bad loop spec '{spec}'", lineno)
                    if int(lm.group(1)) != j:
                        raise ParseError(f"loop variables must be i0..i{len(specs)-1} in order", lineno)
                    los.append(int(lm.group(2)))
                    his.append(int(lm.group(3)))
                try:
                    box = IntBox(tuple(los), tuple(his))
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
                current = {"name": name, "kind": kind, "box": box, "body": [], "line": lineno}
                continue
            raise ParseError(f"expected a tensor declaration or nest header, got '{line}'", lineno)
        if line == "}":
            nests.append(OperatorNest(current["name"], current["kind"], current["box"], tuple(current["body"])))
            current = None
            continue
        box = current["box"]
        indent = len(raw) - len(raw.lstrip())
        m = textual._LOAD_RE.match(line)
        if m:
            result, tensor, exprs_text = m.groups()
            access = _ref_parse_access(exprs_text, box, lineno, indent + m.start(3) + 1)
            current["body"].append(Load(result, tensor, access))
            continue
        m = textual._STORE_RE.match(line)
        if m:
            tensor, exprs_text, value = m.groups()
            access = _ref_parse_access(exprs_text, box, lineno, indent + m.start(2) + 1)
            current["body"].append(Store(tensor, access, value))
            continue
        m = textual._MEMCOPY_RE.match(line)
        if m:
            dst, src = m.groups()
            current["body"].append(Memcopy(dst, src))
            continue
        m = textual._COMPUTE_RE.match(line)
        if m:
            result, opcode, ops_text = m.groups()
            current["body"].append(Compute(result, opcode, tuple(o[1:] for o in ops_text.split())))
            continue
        raise ParseError(f"bad statement '{line}'", lineno)
    if current is not None:
        raise ParseError(f"nest '{current['name']}' never closed (missing '}}')", current["line"])
    return Program(tuple(tensors), tuple(nests))


def _outcome(parser, *args):
    """The parsed value, or the error's type and message (and a ParseError's line and column)."""
    try:
        return parser(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


def _generated_texts():
    wavenet = generate_wavenet_analog(12, 2, seed=4)
    resnet = generate_resnet_analog(3, 2, seed=1)
    programs = [
        wavenet,
        resnet,
        run_dme(wavenet).program,
        run_dme(resnet).program,
        run_global_mapping(resnet)[0],
        run_global_mapping(run_dme(resnet).program)[0],
        run_local_baseline(resnet)[0],
    ]
    return [print_program(p) for p in programs]


def test_parser_matches_reference_on_generated_programs():
    texts = _generated_texts() + [MINIMAL, FULL] + [p.read_text() for p in sorted(GOLDEN.glob("*.ir"))]
    assert any("memcopy" in t for t in texts) and any("floordiv" in t for t in texts)
    for text in texts:
        program = parse(text)
        assert program == _ref_parse(text)
        assert print_program(program) == text or text in (MINIMAL, FULL)


_MUTATIONS = [
    # zero or negative divisor
    ("floordiv 8", "floordiv 0"),
    ("floordiv 4", "floordiv -4"),
    ("mod 8", "mod 0"),
    ("floordiv 4", "mod -1"),
    # unknown loop variable, in an access and in a loop header
    ("i1]", "i7]"),
    ("[i0", "[i3"),
    ("(i0 in 0..4, i1 in", "(i0 in 0..4, i2 in"),
    # junk characters
    ("[i0", "[$i0"),
    (" + i1", " + ? i1"),
    ("*i0", "*i0 @"),
    # depth-two div/mod, and groups that normalize back to depth one
    ("(i0) floordiv 8", "((i0) floordiv 2) floordiv 8"),
    ("(i0) mod 8", "((i0) mod 2) mod 8"),
    ("(i0) floordiv 4", "((2*i0) floordiv 2) floordiv 4"),
    ("(i0) floordiv 4", "((i0) mod 1 + (i0 - i0)) floordiv 4"),
    ("(i0) floordiv 4", "(3*((i0) floordiv 2) - 3*((i0) floordiv 2) + i0) mod 4"),
    # malformed groups and sums
    ("(i0)", "(i0"),
    ("(i0)", "(i0) floordiv"),
    ("8*i0 + i1", "8*i0 + + i1"),
    ("8*i0 + i1", "8*3 + i1"),
    ("8*i0 + i1", "8*i0 + i1,"),
    ("[i0, i1]", "[]"),
    # malformed tensor declarations
    ("banks=8", "banks=0"),
]

_TOKEN = re.compile(r"i\d+|\d+|floordiv|mod|%\w+|\w+|\S")


def _mutants(text):
    """Texts with one defect each: a deleted token, a substitution, an unclosed nest."""
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        for m in _TOKEN.finditer(line):
            yield "".join(lines[:k]) + line[: m.start()] + line[m.end() :] + "".join(lines[k + 1 :])
        if line.strip() == "}":
            yield "".join(lines[:k] + lines[k + 1 :])
    for old, new in _MUTATIONS:
        start = text.find(old)
        while start >= 0:
            yield text[:start] + new + text[start + len(old) :]
            start = text.find(old, start + 1)


def test_parser_matches_reference_on_mutated_texts():
    sources = [FULL, (GOLDEN / "reshape_round.ir").read_text(), (GOLDEN / "wavenet_dme.ir").read_text()]
    messages = set()
    count = 0
    for source in sources:
        for text in _mutants(source):
            got = _outcome(parse, text)
            assert got == _outcome(_ref_parse, text), text
            count += 1
            if isinstance(got, tuple) and got[0] == "ParseError":
                messages.add(got[1])
    assert count > 500
    # every kind of defect above reached its error path
    for fragment in (
        "divisor must be positive",
        "expected divisor after 'mod'",
        "unknown loop variable i7",
        "loop variables must be i0..i1 in order",
        "unexpected character '$' in expression",
        "floordiv of a non-linear expression exceeds nesting depth 1",
        "mod of a non-linear expression exceeds nesting depth 1",
        "never closed (missing '}')",
        "expected ')'",
        "trailing 'i1' in expression",
        "expected a loop variable, constant or '('",
        "access needs at least one index expression",
        "bad statement",
        "bad tensor extents '4 8'",
        "bank count must be >= 1",
    ):
        assert any(fragment in m for m in messages), fragment



# statement lines that each form's pattern must take, or leave to another
_STATEMENT_LINES = [
    "%v = load %x[i0, i1]",
    "%v=load   %x[i1, i0 + 1]",
    "%v =load\t%x[i0, (i1) mod 4]",
    "%v = load %x %y",  # a compute whose opcode is 'load'
    "%v = load %x[i0, i1] %y",
    "%loaded = add %load %x",
    "%v = identity %w",
    "%v = neg",
    "%v = store %x[i0, i1]",
    "% v = add %a %b",
    "%",
    "store %x[i0, i1] = %v",
    "store  %x[i1,i0]=%v",
    "store %x[i0, i9] = %v",
    "store %x = %v",
    "storage %x",
    "s",
    "memcopy %d <- %s",
    "memcopy %d<-%s",
    "memcopy %d <- %s %t",
    "memcopyy %d <- %s",
    "m",
    "} }",
    "}x",
    "load %x[i0, i1]",
    "v = add %a %b",
    "# a comment, so the nest is empty",
]


def test_each_statement_line_is_read_as_trying_every_form_in_turn_would():
    head = "tensor %x : 4x[4, 8] @dram input\n\nnest n kind=copy (i0 in 0..4, i1 in 0..8) {\n"
    kinds = set()
    for line in _STATEMENT_LINES:
        for indent in ("  ", "\t "):
            text = head + indent + line + "\n}\n"
            got = _outcome(parse, text)
            assert got == _outcome(_ref_parse, text), line
            if isinstance(got, tuple):
                kinds.add(got[1].split(":", 1)[1].split("'")[0].strip())
            else:
                kinds.update(
                    (type(stmt).__name__, getattr(stmt, "opcode", None)) for stmt in got.nests[0].body
                )
    assert kinds == {
        ("Load", None),
        ("Compute", "load"),
        ("Compute", "add"),
        ("Compute", "identity"),
        ("Store", None),
        ("Memcopy", None),
        "bad statement",
        "unknown loop variable i9",
    }


_EXPRESSIONS = [
    "0",
    "-7",
    "i0",
    "-i1 + 4",
    "3*i0 + i2 - 7 - 2*i0",
    "(i0 + i1) floordiv 4",
    "(2*i0 - 3) mod 5",
    "2*((i0) floordiv 4) - i1",
    "-(2*(i0 - (i1) mod 3) + 4) - -3*i2",
    "3*(2*((i0) floordiv 4) - i1) + 6*((i0) floordiv 4)",
    "(i0) mod 4 + 4*((i0) floordiv 4) - i0",
    "((i0 + 2*i1) mod 6) - 0*((i2) floordiv 3)",
    "(6*i0 + 4) floordiv 2 + (6*i1 + 3) mod 3 + (0*i2 + 7) floordiv 2",
]


def test_expression_parser_matches_reference():
    count = 0
    for source in _EXPRESSIONS:
        mutants = [source] + [source[: m.start()] + source[m.end() :] for m in _TOKEN.finditer(source)]
        for text in mutants:
            got = _outcome(parse_expr, text, 3, 4, 9)
            assert got == _outcome(_ref_parse_expr, text, 3, 4, 9), text
            count += not isinstance(got, tuple)
    assert count > len(_EXPRESSIONS)


@pytest.mark.parametrize(
    "text, expected",
    [
        # the inner group collapses to i0, so the outer floordiv keeps depth one
        ("((2*i0) floordiv 2) floordiv 3", ("(i0) floordiv 3", 1)),
        ("((i0) floordiv 2) floordiv 3", ("floordiv of a non-linear expression exceeds nesting depth 1", 19)),
    ],
)
def test_group_is_normalized_before_its_depth_check(text, expected):
    got = _outcome(parse_expr, text, 1)
    assert got == _outcome(_ref_parse_expr, text, 1)
    if isinstance(got, tuple):
        assert got == ("ParseError", f"line 1, col {expected[1]}: {expected[0]}", 1, expected[1])
    else:
        assert print_expr(got) == expected[0]


def test_parse_error_columns_count_from_line_start():
    head = "tensor %x : 4x[4, 8] @dram input\n\nnest n kind=copy (i0 in 0..4, i1 in 0..8) {\n"
    with pytest.raises(ParseError) as err:
        parse(head + "  %v = load %x[i0, i7]\n}\n")
    assert (err.value.line, err.value.col) == (4, 20)
    assert str(err.value) == "line 4, col 20: unknown loop variable i7"
    line = "    store %x[i0,  (i1) floordiv 0] = %v"
    with pytest.raises(ParseError) as err:
        parse(head + "  %v = load %x[i0, i1]\n" + line + "\n}\n")
    assert (err.value.line, err.value.col) == (5, 33)
    assert line[33 - 1] == "0"


def test_parse_builds_one_map_per_distinct_access_and_box(monkeypatch):
    built = []

    def counting_affine_map(box, exprs):
        built.append(box)
        return affine_map(box, exprs)

    monkeypatch.setattr(textual, "affine_map", counting_affine_map)
    text = print_program(generate_resnet_analog(64, 3, seed=0))
    distinct = set()
    accesses = 0
    box = None
    for line in text.splitlines():
        if line.startswith("nest "):
            box = tuple(re.findall(r"i\d+ in (-?\d+)\.\.(-?\d+)", line))
        elif line.startswith("  "):
            for access in re.findall(r"%\w+\[([^\]]*)\]", line):
                distinct.add((access, box))
                accesses += 1
    assert accesses > 20 * len(distinct)
    program = parse(text)
    assert len(built) == len(distinct)
    # nothing is kept across calls: a second parse builds every map again
    assert parse(text) == program
    assert len(built) == 2 * len(distinct)


def test_print_builds_no_map_for_memcopies(monkeypatch):
    local, _ = run_local_baseline(generate_resnet_analog(64, 3, seed=0))
    expected = print_program(local)
    memcopy_boxes = [n.box for n in local.nests for s in n.body if isinstance(s, Memcopy)]
    assert len(memcopy_boxes) > 20 * len(set(memcopy_boxes))

    def no_map(*args):
        raise AssertionError("print_program built a map")

    monkeypatch.setattr(textual, "affine_map", no_map)
    assert print_program(local) == expected
