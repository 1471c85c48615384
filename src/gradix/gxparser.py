"""The `.gx` text grammar: rings, weights, ideals, and polynomial
expressions.  This is the ingestion path for the CLI and for test fixtures.

    ring QQ[x,y] weights(1,1);
    ideal I = x^2+x*y, x^2-y^2, y^3;
    order grevlex;

`#` starts a line comment.  Multiplication is explicit (`x*y`, never `xy`),
`^` binds tighter than `*` binds tighter than `+`/`-`, and unary minus is
allowed.  Rational literals `a/b` are accepted over QQ.  Writing `t^-1` in
the variable list declares t invertible; negative exponents in polynomial
expressions are allowed exactly for invertible variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GradixError, ParseError
from .fields import GF, QQ
from .poly import GrevLex, Lex, Polynomial, RingSpec


@dataclass
class Token:
    kind: str  # NAME | INT | PUNCT | EOF
    text: str
    line: int
    col: int


_PUNCT = set("[](){}^*+-,;=/")


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


class _Stream:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)


# ---------------------------------------------------------------------------
# polynomial expressions (precedence climbing)

_PREC = {"+": 1, "-": 1, "*": 2, "^": 3}


def _parse_exponent(ts: _Stream) -> int:
    neg = False
    if ts.peek().text == "-":
        ts.next()
        neg = True
    t = ts.peek()
    if t.kind != "INT":
        ts.fail("expected integer exponent after '^'")
    ts.next()
    e = int(t.text)
    return -e if neg else e


def _apply_power(ts: _Stream, base: Polynomial, e: int, ring: RingSpec, tok: Token) -> Polynomial:
    if e >= 0:
        return base**e
    if len(base.terms) == 1:
        (m, c), = base.terms.items()
        if c == ring.field.one() and sum(m) == 1:
            i = m.index(1)
            if i < len(ring.names) and ring.invertible[i]:
                j = ring.companion_of[i]
                exps = [0] * ring.npres
                exps[j] = -e
                return ring.monomial(tuple(exps))
            if i >= len(ring.names):
                # base is itself an inverse companion: t^-1 ^ -k = t^k
                user = ring.pres_names[i].removesuffix("^-1")
                exps = [0] * ring.npres
                exps[ring.index_of(user)] = -e
                return ring.monomial(tuple(exps))
    raise ParseError("negative exponents are only allowed on invertible variables", tok.line, tok.col)


def _parse_atom(ts: _Stream, ring: RingSpec) -> Polynomial:
    t = ts.peek()
    if t.text == "(":
        ts.next()
        inner = _parse_expr(ts, ring, 1)
        ts.expect(")")
        return inner
    if t.text == "-":
        ts.next()
        return -_parse_expr(ts, ring, _PREC["*"])
    if t.kind == "INT":
        ts.next()
        num = int(t.text)
        if ts.peek().text == "/":
            if ring.field != QQ:
                ts.fail("rational literals require coefficient field QQ")
            ts.next()
            dt = ts.peek()
            if dt.kind != "INT":
                ts.fail("expected integer denominator")
            ts.next()
            den = int(dt.text)
            if den == 0:
                raise ParseError("zero denominator", dt.line, dt.col)
            return ring.constant(Fraction(num, den))
        return ring.constant(ring.field.from_int(num))
    if t.kind == "NAME":
        ts.next()
        if t.text not in ring.names:
            raise ParseError(f"unknown variable {t.text!r}", t.line, t.col)
        return ring.var(t.text)
    ts.fail(f"unexpected token {t.text or 'end of input'!r}")


def _parse_expr(ts: _Stream, ring: RingSpec, min_prec: int) -> Polynomial:
    lhs = _parse_atom(ts, ring)
    while True:
        t = ts.peek()
        op = t.text
        if op not in _PREC or _PREC[op] < min_prec:
            return lhs
        ts.next()
        if op == "^":
            e = _parse_exponent(ts)
            lhs = _apply_power(ts, lhs, e, ring, t)
        elif op == "*":
            rhs = _parse_expr(ts, ring, _PREC["*"] + 1)
            lhs = lhs * rhs
        elif op == "+":
            rhs = _parse_expr(ts, ring, _PREC["+"] + 1)
            lhs = lhs + rhs
        else:
            rhs = _parse_expr(ts, ring, _PREC["-"] + 1)
            lhs = lhs - rhs


def _whole(ts: _Stream, value):
    """value, once the rule that produced it has consumed all of ts."""
    t = ts.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return value


def parse_poly(text: str, ring: RingSpec) -> Polynomial:
    """Parse a single polynomial expression over an existing ring."""
    ts = _Stream(tokenize(text))
    return _whole(ts, _parse_expr(ts, ring, 1))


# ---------------------------------------------------------------------------
# documents


def _parse_field(ts: _Stream):
    t = ts.next()
    if t.text == "QQ":
        return QQ
    if t.text == "GF":
        ts.expect("(")
        pt = ts.peek()
        if pt.kind != "INT":
            ts.fail("expected prime modulus")
        ts.next()
        ts.expect(")")
        try:
            return GF(int(pt.text))
        except GradixError as e:
            raise ParseError(str(e), pt.line, pt.col) from None
    raise ParseError(f"expected field (QQ or GF(p)), found {t.text!r}", t.line, t.col)


def parse_field(text: str):
    """Parse a coefficient field written as in a ring declaration: QQ or GF(p)."""
    ts = _Stream(tokenize(text))
    return _whole(ts, _parse_field(ts))


def _parse_ring(ts: _Stream) -> RingSpec:
    field = _parse_field(ts)
    ts.expect("[")
    names: list[str] = []
    invertible: list[bool] = []
    while True:
        t = ts.peek()
        if t.kind != "NAME":
            ts.fail("expected variable name")
        ts.next()
        if ts.peek().text == "^":
            ts.next()
            ts.expect("-")
            one = ts.peek()
            if one.text != "1":
                ts.fail("only '^-1' is allowed in a variable list")
            ts.next()
            if t.text not in names:
                raise ParseError(
                    f"'{t.text}^-1' must follow a declaration of {t.text!r}", t.line, t.col
                )
            invertible[names.index(t.text)] = True
        else:
            if t.text in names:
                raise ParseError(f"duplicate variable {t.text!r}", t.line, t.col)
            names.append(t.text)
            invertible.append(False)
        if ts.peek().text == ",":
            ts.next()
            continue
        break
    ts.expect("]")
    weights = None
    if ts.peek().text == "weights":
        ts.next()
        ts.expect("(")
        weights = []
        while True:
            neg = False
            if ts.peek().text == "-":
                ts.next()
                neg = True
            wt = ts.peek()
            if wt.kind != "INT":
                ts.fail("expected integer weight")
            ts.next()
            weights.append(-int(wt.text) if neg else int(wt.text))
            if ts.peek().text == ",":
                ts.next()
                continue
            break
        ts.expect(")")
        if len(weights) != len(names):
            ts.fail(f"{len(names)} variables but {len(weights)} weights")
    ts.expect(";")
    return RingSpec.make(field, names, weights, invertible)


def parse_document(text: str):
    """Parse a full `.gx` document.

    Returns (ring, ideals, order) where `ideals` maps names to
    groebner.Ideal values and `order` is the declared monomial order
    (grevlex unless the document says otherwise).
    """
    from .groebner import Ideal

    ts = _Stream(tokenize(text))
    ring: RingSpec | None = None
    ideals: dict[str, Ideal] = {}
    order = None
    while ts.peek().kind != "EOF":
        t = ts.peek()
        if t.text == "ring":
            ts.next()
            if ring is not None:
                raise ParseError("more than one ring declaration", t.line, t.col)
            ring = _parse_ring(ts)
        elif t.text == "ideal":
            ts.next()
            if ring is None:
                raise ParseError("ideal declared before the ring", t.line, t.col)
            nt = ts.peek()
            if nt.kind != "NAME":
                ts.fail("expected ideal name")
            ts.next()
            if nt.text in ideals:
                raise ParseError(f"duplicate ideal name {nt.text!r}", nt.line, nt.col)
            ts.expect("=")
            gens = [_parse_expr(ts, ring, 1)]
            while ts.peek().text == ",":
                ts.next()
                gens.append(_parse_expr(ts, ring, 1))
            ts.expect(";")
            ideals[nt.text] = Ideal(ring, gens)
        elif t.text == "order":
            ts.next()
            ot = ts.next()
            if ot.text == "grevlex":
                order = "grevlex"
            elif ot.text == "lex":
                order = "lex"
            else:
                raise ParseError(f"unknown order {ot.text!r}", ot.line, ot.col)
            ts.expect(";")
        else:
            ts.fail(f"expected 'ring', 'ideal' or 'order', found {t.text!r}")
    if ring is None:
        t = ts.peek()
        raise ParseError("document contains no ring declaration", t.line, t.col)
    ord_obj = Lex(ring.npres) if order == "lex" else GrevLex(ring.npres)
    return ring, ideals, ord_obj


def parse_file(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text (byte {e.start}: {e.reason})") from None
    return parse_document(text)


# ---------------------------------------------------------------------------
# rendering


def _mono_str(ring: RingSpec, m: tuple) -> str:
    parts = []
    ncore = len(ring.names)
    inverse_user = {j: i for i, j in ring.companion_of.items()}
    for i, e in enumerate(m):
        if e == 0:
            continue
        if i < ncore:
            parts.append(ring.names[i] if e == 1 else f"{ring.names[i]}^{e}")
        else:
            parts.append(f"{ring.names[inverse_user[i]]}^-{e}")
    return "*".join(parts)


def _coeff_str(field, c) -> tuple[bool, str]:
    """(negative?, magnitude string); prime-field residues are never negative."""
    if isinstance(c, Fraction):
        return c < 0, str(abs(c))
    return False, str(c)


def render(value) -> str:
    """Round-trip-stable text for a Polynomial or an Ideal (generator list)."""
    from .groebner import Ideal

    if isinstance(value, Ideal):
        gens = value.gens
        return ", ".join(render(g) for g in gens) if gens else "0"
    f: Polynomial = value
    if f.is_zero():
        return "0"
    field = f.ring.field
    out = []
    for m, c in f.sorted_terms():
        neg, mag = _coeff_str(field, c)
        ms = _mono_str(f.ring, m)
        if not ms:
            body = mag
        elif mag == "1":
            body = ms
        else:
            body = f"{mag}*{ms}"
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("-" if neg else "+") + body)
    return "".join(out)
