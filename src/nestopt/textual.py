"""Line-oriented textual format for programs.

    tensor %name : <elem_size>x[<extents>] @dram|@sbuf \
        [banked(axis=A, banks=B, policy=cyclic|blocked)] [input|output]
    nest <name> kind=<kind> (i0 in lo..hi, ...) {
      %v = load %t[expr, ...]
      store %t[expr, ...] = %v
      %v = add|mul|max|neg|identity %a [%b]
      memcopy %dst <- %src
    }

Expressions are sums of integer constants, scaled loop variables ``k*iN``
and parenthesized depth-one quotients ``(linear) floordiv k`` /
``(linear) mod k``, optionally scaled.  ``#`` starts a comment.  Printing
is canonical and stable, and ``parse(print(p)) == p`` for valid programs.
``print_program`` formats each distinct access map once per call: a
whole-model program repeats a few maps across many statements.
"""

from __future__ import annotations

import re

from .affine import (
    DivModTerm,
    IntBox,
    QuasiAffineExpr,
    QuasiAffineMap,
    affine_map,
    identity_map,
)
from .ir import (
    BankMapping,
    BankPolicy,
    Compute,
    Load,
    Location,
    Memcopy,
    OffChip,
    OnChip,
    OperatorNest,
    Origin,
    Program,
    Statement,
    Store,
    TensorDecl,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Printing


def _print_linear(coeffs, const, force_const: bool = False) -> list[tuple[int, str]]:
    """(sign, piece) monomials of a linear expression; sign is +1/-1."""
    pieces: list[tuple[int, str]] = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        pieces.append((1 if c > 0 else -1, f"i{j}" if mag == 1 else f"{mag}*i{j}"))
    if const != 0 or (force_const and not pieces):
        pieces.append((1 if const >= 0 else -1, str(abs(const))))
    return pieces


def _join_pieces(pieces: list[tuple[int, str]]) -> str:
    if not pieces:
        return "0"
    out = []
    for k, (sign, text) in enumerate(pieces):
        if k == 0:
            out.append(f"-{text}" if sign < 0 else text)
        else:
            out.append(f"{'-' if sign < 0 else '+'} {text}")
    return " ".join(out)


def print_expr(expr: QuasiAffineExpr) -> str:
    pieces = _print_linear(expr.coeffs, expr.const)
    for t in expr.terms:
        group = f"({_join_pieces(_print_linear(t.coeffs, t.const))}) floordiv {t.divisor}"
        mag = abs(t.weight)
        pieces.append((1 if t.weight > 0 else -1, group if mag == 1 else f"{mag}*({group})"))
    return _join_pieces(pieces)


def _print_access(tensor: str, access: QuasiAffineMap, indices: dict[int, str]) -> str:
    index = indices.get(id(access))
    if index is None:
        index = indices[id(access)] = ", ".join(print_expr(e) for e in access.exprs)
    return f"%{tensor}[{index}]"


def _print_location(loc: Location) -> str:
    if isinstance(loc, OffChip):
        return "@dram"
    if loc.mapping is None:
        return "@sbuf"
    m = loc.mapping
    return f"@sbuf banked(axis={m.axis}, banks={m.banks}, policy={m.policy.value})"


def print_program(program: Program) -> str:
    lines: list[str] = []
    # memcopy element maps, one per box, and the index text of each access
    # map, both kept for this call only.  Index texts are keyed by the map's
    # id: the program keeps its maps alive for the call, and a pass's output
    # shares most maps as objects, so hashing each map would cost more than
    # formatting an equal copy again.
    identities: dict[IntBox, QuasiAffineMap] = {}
    indices: dict[int, str] = {}
    for t in program.tensors:
        shape = ", ".join(str(d) for d in t.shape)
        line = f"tensor %{t.name} : {t.elem_size}x[{shape}] {_print_location(t.location)}"
        if t.origin is Origin.MODEL_INPUT:
            line += " input"
        elif t.origin is Origin.MODEL_OUTPUT:
            line += " output"
        lines.append(line)
    for nest in program.nests:
        if lines:
            lines.append("")
        loops = ", ".join(
            f"i{j} in {lo}..{hi}" for j, (lo, hi) in enumerate(zip(nest.box.los, nest.box.his))
        )
        lines.append(f"nest {nest.name} kind={nest.kind} ({loops}) {{")
        for stmt in nest.body:
            lines.append("  " + _print_statement(stmt, nest, identities, indices))
        lines.append("}")
    return "\n".join(lines) + "\n"


def _print_statement(
    stmt: Statement,
    nest: OperatorNest,
    identities: dict[IntBox, QuasiAffineMap],
    indices: dict[int, str],
) -> str:
    if isinstance(stmt, Load):
        return f"%{stmt.result} = load {_print_access(stmt.tensor, stmt.access, indices)}"
    if isinstance(stmt, Store):
        return f"store {_print_access(stmt.tensor, stmt.access, indices)} = %{stmt.value}"
    if isinstance(stmt, Compute):
        ops = " ".join(f"%{o}" for o in stmt.operands)
        return f"%{stmt.result} = {stmt.opcode} {ops}"
    if isinstance(stmt, Memcopy):
        ident = identities.get(nest.box)
        if ident is None:
            ident = identities[nest.box] = identity_map(nest.box)
        if stmt.element_map != ident:
            raise ValueError("memcopy with a non-identity element map is not printable")
        return f"memcopy %{stmt.dst} <- %{stmt.src}"
    raise TypeError(stmt)


# ---------------------------------------------------------------------------
# Expression parsing


_EXPR_TOKEN = re.compile(r"(\d+)|(i\d+)|(floordiv|mod)|([()+\-*])|(\s+)")


def _tokenize_expr(text: str, line: int, col0: int) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} in expression", line, col0 + pos)
        if m.group(1):
            toks.append(("int", m.group(1), col0 + pos))
        elif m.group(2):
            toks.append(("var", m.group(2), col0 + pos))
        elif m.group(3):
            toks.append(("op", m.group(3), col0 + pos))
        elif m.group(4):
            toks.append(("sym", m.group(4), col0 + pos))
        pos = m.end()
    return toks


class _ExprParser:
    """Recursive descent straight into one linear part and one term list.

    Each production adds its monomials into the caller's coefficient list
    and term list, scaled by the product of the constants in front of it,
    and returns its constant.  Only ``parse`` builds a ``QuasiAffineExpr``,
    so the expression is normalized once.  A parenthesized group followed by
    floordiv/mod is the exception: it is normalized on its own first,
    because the depth check needs its canonical form (``(2*i0) floordiv 2``
    is linear, ``(i0) floordiv 2`` is not).  The normal form stores floor
    divisions only, so ``k*(e mod d)`` is read as ``k*e - k*d*(e floordiv d)``.
    """

    def __init__(self, toks, arity: int, line: int, end_col: int):
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

    def expect_sym(self, sym: str):
        kind, val, col = self.take()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected '{sym}'", self.line, col)

    def parse(self) -> QuasiAffineExpr:
        coeffs = [0] * self.arity
        terms: list[DivModTerm] = []
        const = self.parse_sum(coeffs, terms, 1)
        kind, val, col = self.peek()
        if kind is not None:
            raise ParseError(f"trailing '{val}' in expression", self.line, col)
        return QuasiAffineExpr(tuple(coeffs), const, tuple(terms))

    def parse_sum(self, coeffs: list[int], terms: list[DivModTerm], scale: int) -> int:
        const = self.parse_term(coeffs, terms, scale, allow_sign=True)
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                const += self.parse_term(coeffs, terms, scale if val == "+" else -scale, allow_sign=False)
            else:
                return const

    def parse_term(self, coeffs: list[int], terms: list[DivModTerm], scale: int, allow_sign: bool) -> int:
        kind, val, col = self.peek()
        if allow_sign and kind == "sym" and val == "-":
            self.take()
            scale = -scale
            kind, val, col = self.peek()
        if kind == "int":
            self.take()
            k = int(val)
            nk, nv, _ = self.peek()
            if nk == "sym" and nv == "*":
                self.take()
                return self.parse_factor(coeffs, terms, scale * k)
            return scale * k
        return self.parse_factor(coeffs, terms, scale)

    def parse_factor(self, coeffs: list[int], terms: list[DivModTerm], scale: int) -> int:
        kind, val, col = self.take()
        if kind == "var":
            idx = int(val[1:])
            if idx >= self.arity:
                raise ParseError(f"unknown loop variable {val}", self.line, col)
            coeffs[idx] += scale
            return 0
        if kind == "sym" and val == "(":
            inner_coeffs = [0] * self.arity
            inner_terms: list[DivModTerm] = []
            inner_const = self.parse_sum(inner_coeffs, inner_terms, 1)
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
                inner = QuasiAffineExpr(tuple(inner_coeffs), inner_const, tuple(inner_terms))
                if not inner.is_linear:
                    message = f"{nv} of a non-linear expression exceeds nesting depth 1"
                    raise ParseError(message, self.line, ncol)
                if nv == "floordiv":
                    terms.append(DivModTerm(inner.coeffs, inner.const, d, scale))
                    return 0
                terms.append(DivModTerm(inner.coeffs, inner.const, d, -scale * d))
            for j, c in enumerate(inner_coeffs):  # the group itself, or the e of e mod d
                coeffs[j] += scale * c
            terms.extend(DivModTerm(t.coeffs, t.const, t.divisor, scale * t.weight) for t in inner_terms)
            return scale * inner_const
        raise ParseError("expected a loop variable, constant or '('", self.line, col)


def parse_expr(text: str, arity: int, line: int = 1, col0: int = 1) -> QuasiAffineExpr:
    toks = _tokenize_expr(text, line, col0)
    return _ExprParser(toks, arity, line, col0 + len(text)).parse()


# ---------------------------------------------------------------------------
# Program parsing


_TENSOR_RE = re.compile(
    r"tensor\s+%(\w+)\s*:\s*(\d+)x\[([^\]]*)\]\s*@(dram|sbuf)"
    r"(?:\s+banked\(axis=(\d+),\s*banks=(\d+),\s*policy=(cyclic|blocked)\))?"
    r"(?:\s+(input|output))?\s*$"
)
_NEST_RE = re.compile(r"nest\s+([\w.]+)\s+kind=(\w+)\s*\(([^)]*)\)\s*\{\s*$")
_LOOP_RE = re.compile(r"^i(\d+)\s+in\s+(-?\d+)\s*\.\.\s*(-?\d+)$")
_LOAD_RE = re.compile(r"%(\w+)\s*=\s*load\s+%(\w+)\[(.*)\]\s*$")
_STORE_RE = re.compile(r"store\s+%(\w+)\[(.*)\]\s*=\s*%(\w+)\s*$")
_COMPUTE_RE = re.compile(r"%(\w+)\s*=\s*([a-z_]+)\s+(%\w+(?:\s+%\w+)*)\s*$")
_MEMCOPY_RE = re.compile(r"memcopy\s+%(\w+)\s*<-\s*%(\w+)\s*$")


class _CallMemo:
    """One value per distinct text, for the length of one ``parse`` call.

    A whole-model program repeats a few access texts and loop headers many
    times.  Maps and expressions are frozen, so every repeat can share one.
    The box is part of a map's key because ``QuasiAffineMap`` simplifies its
    expressions against its domain.  Only successful results are stored, so
    a bad text still raises on its own line and column.  Nothing outlives
    the call: a process that parses once would never see a shared cache pay
    off, so none is kept.
    """

    def __init__(self) -> None:
        self.maps: dict[tuple[str | None, IntBox], QuasiAffineMap] = {}
        self.exprs: dict[tuple[str, int], QuasiAffineExpr] = {}
        self.boxes: dict[str, IntBox] = {}

    def box(self, loops_text: str, line: int) -> IntBox:
        box = self.boxes.get(loops_text)
        if box is None:
            los: list[int] = []
            his: list[int] = []
            specs = [s.strip() for s in loops_text.split(",") if s.strip()]
            for j, spec in enumerate(specs):
                lm = _LOOP_RE.match(spec)
                if lm is None:
                    raise ParseError(f"bad loop spec '{spec}'", line)
                if int(lm.group(1)) != j:
                    raise ParseError(f"loop variables must be i0..i{len(specs)-1} in order", line)
                los.append(int(lm.group(2)))
                his.append(int(lm.group(3)))
            try:
                box = self.boxes[loops_text] = IntBox(tuple(los), tuple(his))
            except ValueError as exc:
                raise ParseError(str(exc), line) from None
        return box

    def access(self, exprs_text: str, box: IntBox, line: int, col0: int) -> QuasiAffineMap:
        """Map of the text between an access's brackets, which starts at column ``col0``."""
        key = (exprs_text, box)
        access = self.maps.get(key)
        if access is None:
            exprs = []
            col = col0
            for part in exprs_text.split(",") if exprs_text.strip() else ():
                text = part.lstrip()
                exprs.append(self.expr(text.rstrip(), box.ndim, line, col + len(part) - len(text)))
                col += len(part) + 1
            if not exprs:
                raise ParseError("access needs at least one index expression", line)
            access = self.maps[key] = affine_map(box, exprs)
        return access

    def identity(self, box: IntBox) -> QuasiAffineMap:
        """A memcopy's element map, keyed apart from every access text."""
        key = (None, box)
        access = self.maps.get(key)
        if access is None:
            access = self.maps[key] = identity_map(box)
        return access

    def expr(self, text: str, ndim: int, line: int, col0: int) -> QuasiAffineExpr:
        key = (text, ndim)
        expr = self.exprs.get(key)
        if expr is None:
            expr = self.exprs[key] = parse_expr(text, ndim, line, col0)
        return expr


def parse(text: str) -> Program:
    """Parse source text into a Program; structural checks are left to validate()."""
    tensors: list[TensorDecl] = []
    nests: list[OperatorNest] = []
    current: dict | None = None
    memo = _CallMemo()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if current is None:
            m = _TENSOR_RE.match(line)
            if m:
                name, es, shape_text, loc, axis, banks, policy, origin = m.groups()
                try:
                    shape = tuple(int(s.strip()) for s in shape_text.split(",") if s.strip())
                except ValueError:
                    raise ParseError(f"bad tensor extents '{shape_text}'", lineno) from None
                if not shape:
                    raise ParseError("tensor needs at least one extent", lineno)
                location: Location
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
                org = {
                    None: Origin.INTERMEDIATE,
                    "input": Origin.MODEL_INPUT,
                    "output": Origin.MODEL_OUTPUT,
                }[origin]
                tensors.append(TensorDecl(name, int(es), shape, location, org))
                continue
            m = _NEST_RE.match(line)
            if m:
                name, kind, loops_text = m.groups()
                box = memo.box(loops_text, lineno)
                current = {"name": name, "kind": kind, "box": box, "body": [], "line": lineno}
                continue
            raise ParseError(f"expected a tensor declaration or nest header, got '{line}'", lineno)

        # inside a nest; an access's column counts from the start of the raw line
        if line == "}":
            nests.append(
                OperatorNest(
                    current["name"], current["kind"], current["box"], tuple(current["body"])
                )
            )
            current = None
            continue
        box = current["box"]
        indent = len(raw) - len(raw.lstrip())
        m = _LOAD_RE.match(line)
        if m:
            result, tensor, exprs_text = m.groups()
            access = memo.access(exprs_text, box, lineno, indent + m.start(3) + 1)
            current["body"].append(Load(result, tensor, access))
            continue
        m = _STORE_RE.match(line)
        if m:
            tensor, exprs_text, value = m.groups()
            access = memo.access(exprs_text, box, lineno, indent + m.start(2) + 1)
            current["body"].append(Store(tensor, access, value))
            continue
        m = _MEMCOPY_RE.match(line)
        if m:
            dst, src = m.groups()
            current["body"].append(Memcopy(dst, src, memo.identity(box)))
            continue
        m = _COMPUTE_RE.match(line)
        if m:
            result, opcode, ops_text = m.groups()
            operands = tuple(o[1:] for o in ops_text.split())
            current["body"].append(Compute(result, opcode, operands))
            continue
        raise ParseError(f"bad statement '{line}'", lineno)

    if current is not None:
        raise ParseError(f"nest '{current['name']}' never closed (missing '}}')", current["line"])
    return Program(tuple(tensors), tuple(nests))
