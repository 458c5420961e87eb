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


def _print_linear(coeffs, const) -> list[tuple[int, str]]:
    """(sign, piece) monomials of a linear expression; sign is +1/-1."""
    pieces: list[tuple[int, str]] = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        pieces.append((1 if c > 0 else -1, f"i{j}" if mag == 1 else f"{mag}*i{j}"))
    if const != 0:
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


MAX_PAREN_DEPTH = 100


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
    Parentheses nest at most ``MAX_PAREN_DEPTH`` deep, far below Python's
    recursion limit, so deeper input is a ``ParseError`` like any other.
    """

    def __init__(self, toks, arity: int, line: int, end_col: int):
        self.toks = toks
        self.arity = arity
        self.line = line
        self.end_col = end_col
        self.pos = 0
        self.depth = 0

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
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", self.line, col)
            self.depth += 1
            inner_coeffs = [0] * self.arity
            inner_terms: list[DivModTerm] = []
            inner_const = self.parse_sum(inner_coeffs, inner_terms, 1)
            self.expect_sym(")")
            self.depth -= 1
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
_ORIGINS = {None: Origin.INTERMEDIATE, "input": Origin.MODEL_INPUT, "output": Origin.MODEL_OUTPUT}


class _CallMemo:
    """One value per distinct text, for the length of one command.

    A whole-model program repeats a few access texts and loop headers many
    times, and ``verify`` parses a program and its optimized output, which
    repeats most of its lines.  Maps, expressions, boxes, declarations and
    statements are frozen, so every repeat can share one.  A map's key holds
    its nest header's loop text, because ``QuasiAffineMap`` simplifies its
    expressions against its domain; the text names the box without hashing
    it.  For the same reason a statement line is keyed by its stripped text
    and its nest's loop text, and a declaration line by its text alone.
    Only successful results are stored, so a bad text still raises in its
    own file, on its own line and column.  A direct ``parse`` call gets a
    fresh memo; the CLI passes one to both parses of a command.  Nothing
    outlives the command.
    """

    def __init__(self) -> None:
        self.lines: dict[str | tuple[str, str], TensorDecl | Statement] = {}
        self.maps: dict[tuple[str | None, str], QuasiAffineMap] = {}
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

    def access(self, exprs_text: str, loops_text: str, line: int, col0: int) -> QuasiAffineMap:
        """Map of the text between an access's brackets, which starts at column
        ``col0``, over the box of the nest header's ``loops_text``."""
        key = (exprs_text, loops_text)
        access = self.maps.get(key)
        if access is None:
            box = self.boxes[loops_text]
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

    def identity(self, loops_text: str) -> QuasiAffineMap:
        """A memcopy's element map, keyed apart from every access text."""
        key = (None, loops_text)
        access = self.maps.get(key)
        if access is None:
            access = self.maps[key] = identity_map(self.boxes[loops_text])
        return access

    def expr(self, text: str, ndim: int, line: int, col0: int) -> QuasiAffineExpr:
        key = (text, ndim)
        expr = self.exprs.get(key)
        if expr is None:
            expr = self.exprs[key] = parse_expr(text, ndim, line, col0)
        return expr


def parse(text: str, *, _memo: _CallMemo | None = None) -> Program:
    """Parse source text into a Program; structural checks are left to validate().

    ``_memo`` carries the pieces already built for another program of the
    same command; by default the call builds its own.
    """
    tensors: list[TensorDecl] = []
    nests: list[OperatorNest] = []
    # the open nest's name, kind and header line; its loop text and body
    # statements are kept in ``loops_text`` and ``body``
    current: tuple[str, str, int] | None = None
    memo = _CallMemo() if _memo is None else _memo
    lines = memo.lines

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if current is None:
            decl = lines.get(line)
            m = None if decl is not None else _TENSOR_RE.match(line)
            if m:
                name, es, shape_text, loc, axis, banks, policy, origin = m.groups()
                try:
                    shape = tuple([int(s) for s in shape_text.split(",") if s.strip()])
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
                decl = lines[line] = TensorDecl(name, int(es), shape, location, _ORIGINS[origin])
            if decl is not None:
                tensors.append(decl)
                continue
            m = _NEST_RE.match(line)
            if m:
                name, kind, loops_text = m.groups()
                memo.box(loops_text, lineno)
                current = (name, kind, lineno)
                body: list[Statement] = []
                continue
            raise ParseError(f"expected a tensor declaration or nest header, got '{line}'", lineno)

        if line == "}":
            nests.append(OperatorNest(current[0], current[1], memo.boxes[loops_text], tuple(body)))
            current = None
            continue
        stmt = lines.get((line, loops_text))
        if stmt is None:
            indent = len(raw) - len(raw.lstrip())
            stmt = lines[line, loops_text] = _statement(line, indent, loops_text, lineno, memo)
        body.append(stmt)

    if current is not None:
        raise ParseError(f"nest '{current[0]}' never closed (missing '}}')", current[2])
    return Program(tuple(tensors), tuple(nests))


def _statement(line: str, indent: int, loops_text: str, lineno: int, memo: _CallMemo) -> Statement:
    """The statement of a stripped body ``line``; an access's column counts
    from the start of the raw line, which is ``indent`` wider."""
    # each statement form starts with its own character; only a '%' line
    # can be either of two, and only one that mentions 'load' can be a load
    head = line[0]
    if head == "%":
        m = _LOAD_RE.match(line) if "load" in line else None
        if m:
            result, tensor, exprs_text = m.groups()
            col0 = indent + m.start(3) + 1
            return Load(result, tensor, memo.access(exprs_text, loops_text, lineno, col0))
        m = _COMPUTE_RE.match(line)
        if m:
            result, opcode, ops_text = m.groups()
            return Compute(result, opcode, tuple([o[1:] for o in ops_text.split()]))
    elif head == "s":
        m = _STORE_RE.match(line)
        if m:
            tensor, exprs_text, value = m.groups()
            col0 = indent + m.start(2) + 1
            return Store(tensor, memo.access(exprs_text, loops_text, lineno, col0), value)
    elif head == "m":
        m = _MEMCOPY_RE.match(line)
        if m:
            dst, src = m.groups()
            return Memcopy(dst, src, memo.identity(loops_text))
    raise ParseError(f"bad statement '{line}'", lineno)
