"""Symbolic descriptions of finite commutative rings and their ASCII grammar.

Grammar (whitespace insignificant)::

    spec := term | term "x" spec
    term := "Z" int
          | "(" spec ")"
          | "Z" int "(+)" "Z" int
          | term "/" "(" int-list ")"

``Z8`` is the ring of integers mod 8, ``x`` builds direct products, and
``Zn (+) Zd`` is the trivial extension of Z_n by the module Z_d (requires
d | n, so that the action r.m = (r mod d)m is well defined).  A trailing
``/(g1, g2, ...)`` quotients a cyclic or product ring by the ideal
generated by the listed element literals.  A literal is the element's
index in the ring's canonical element order; for Z_n that is simply the
residue.

The canonical printer `format_ring_spec` emits this same grammar, and
parse/print round-trips are exact.

Every spec carries `order_bound`, set when it is made from its parts'
bounds: no part of the ring, the ring itself included, has more
elements.  It is the order itself unless a quotient is among the parts,
whose order is at most its base's.  It is neither compared nor printed.
"""

from __future__ import annotations

from .records import Record, _set


class SpecError(ValueError):
    """Invalid ring description (a semantic problem, not a typo)."""


class SpecSyntaxError(SpecError):
    """Malformed ring-spec text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingSpec(Record):
    """The base of the four spec kinds; `order_bound` is kept beside the
    fields."""

    __slots__ = ("order_bound", "_hash")

    def _seal(self, values: tuple, order_bound: int):
        # after the fields: a spec hashes once, since every lookup of its
        # ring hashes it
        _set(self, "_values", values)
        _set(self, "_hash", hash(values))
        _set(self, "order_bound", order_bound)

    def __hash__(self):
        return self._hash


class CyclicZ(RingSpec):
    """The ring Z_n of integers modulo n, n >= 2."""

    __slots__ = _fields = ("modulus",)
    modulus: int

    def __init__(self, modulus: int):
        if modulus < 2:
            raise SpecError(f"Z{modulus}: modulus < 2")
        _set(self, "modulus", modulus)
        self._seal((modulus,), modulus)


class Product(RingSpec):
    """Direct product of two rings, with componentwise operations."""

    __slots__ = _fields = ("left", "right")
    left: RingSpec
    right: RingSpec

    def __init__(self, left: RingSpec, right: RingSpec):
        _set(self, "left", left)
        _set(self, "right", right)
        self._seal((left, right), left.order_bound * right.order_bound)


class Idealization(RingSpec):
    """Trivial extension Z_n (+) Z_d: pairs (r, m) with
    (r, m)(s, u) = (rs, ru + sm).  Requires d | n."""

    __slots__ = _fields = ("base_modulus", "module_modulus")
    base_modulus: int
    module_modulus: int

    def __init__(self, base_modulus: int, module_modulus: int):
        n, d = base_modulus, module_modulus
        if n < 2:
            raise SpecError(f"Z{n}: modulus < 2")
        if d < 1:
            raise SpecError(f"Z{d}: module modulus < 1")
        if n % d != 0:
            raise SpecError(
                f"Z{n} (+) Z{d}: d must divide n ({d} does not divide {n})"
            )
        _set(self, "base_modulus", n)
        _set(self, "module_modulus", d)
        self._seal((n, d), n * d)


class Quotient(RingSpec):
    """Quotient of a base ring by the ideal generated by element literals.

    Literals index the base ring's canonical element order.  The grammar
    only allows quotients of cyclic and product rings, but quotients of
    any realized ring can be formed programmatically.
    """

    __slots__ = _fields = ("base", "generators")
    base: RingSpec
    generators: tuple

    def __init__(self, base: RingSpec, generators=()):
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, int) or g < 0:
                raise SpecError(f"quotient generator literal {g!r} is not a non-negative integer")
        _set(self, "base", base)
        _set(self, "generators", generators)
        self._seal((base, generators), base.order_bound)


def format_ring_spec(spec: RingSpec) -> str:
    """Canonical printer for the grammar above."""
    if isinstance(spec, CyclicZ):
        return f"Z{spec.modulus}"
    if isinstance(spec, Idealization):
        return f"Z{spec.base_modulus} (+) Z{spec.module_modulus}"
    if isinstance(spec, Product):
        return f"{_format_term(spec.left)} x {format_ring_spec(spec.right)}"
    if isinstance(spec, Quotient):
        gens = ", ".join(str(g) for g in spec.generators)
        return f"{_format_term(spec.base)}/({gens})"
    raise TypeError(f"not a ring spec: {spec!r}")


def _format_term(spec: RingSpec) -> str:
    # only a product needs parentheses in term position
    text = format_ring_spec(spec)
    return f"({text})" if isinstance(spec, Product) else text


# --- tokenizer -------------------------------------------------------------

_T_Z = "Z"
_T_INT = "INT"
_T_CROSS = "CROSS"
_T_IDEALIZE = "IDEALIZE"
_T_LP = "("
_T_RP = ")"
_T_SLASH = "/"
_T_COMMA = ","
_T_EQ = "="
_T_WORD = "WORD"
_T_EOF = "EOF"


def _tokenize(text: str):
    tokens = []
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("(+)", i):
            tokens.append((_T_IDEALIZE, "(+)", i))
            i += 3
        elif ch.isdigit():
            j = i
            while j < size and text[j].isdigit():
                j += 1
            tokens.append((_T_INT, int(text[i:j]), i))
            i = j
        elif ch.isalpha():
            matched = None
            for keyword in ("ideal", "gens"):
                end = i + len(keyword)
                if text.startswith(keyword, i) and (end >= size or not text[end].isalpha()):
                    matched = keyword
                    break
            if matched:
                tokens.append((_T_WORD, matched, i))
                i += len(matched)
            elif ch == "Z":
                tokens.append((_T_Z, ch, i))
                i += 1
            elif ch == "x":
                tokens.append((_T_CROSS, ch, i))
                i += 1
            else:
                raise SpecSyntaxError(f"unexpected character {ch!r}", i)
        elif ch in "()/,=":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise SpecSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append((_T_EOF, None, size))
    return tokens


class _Parser:
    # each 'x' or '(' nests one level, and a product of k factors has order
    # at least 2**k (the default cap admits 20): refusing text past 100 levels
    # keeps parsing, hashing and printing a spec inside the recursion limit
    MAX_DEPTH = 100

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            raise SpecSyntaxError(f"expected {what or kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_spec(self, depth=0) -> RingSpec:
        if depth > self.MAX_DEPTH:
            raise SpecSyntaxError(f"spec nested deeper than {self.MAX_DEPTH}", self.peek()[2])
        left = self.parse_term(depth)
        if self.peek()[0] == _T_CROSS:
            self.next()
            return Product(left, self.parse_spec(depth + 1))
        return left

    def parse_term(self, depth) -> RingSpec:
        kind, _, pos = self.peek()
        if kind == _T_Z:
            self.next()
            n = self.expect(_T_INT, "an integer after 'Z'")[1]
            if self.peek()[0] == _T_IDEALIZE:
                self.next()
                self.expect(_T_Z, "'Z'")
                d = self.expect(_T_INT, "an integer after 'Z'")[1]
                base: RingSpec = Idealization(n, d)
            else:
                base = CyclicZ(n)
        elif kind == _T_LP:
            self.next()
            base = self.parse_spec(depth + 1)
            self.expect(_T_RP, "')'")
        else:
            raise SpecSyntaxError("expected 'Z<int>' or '('", pos)
        while self.peek()[0] == _T_SLASH:
            slash_pos = self.next()[2]
            if not isinstance(base, (CyclicZ, Product)):
                raise SpecSyntaxError(
                    "'/' is only allowed after a cyclic or product ring", slash_pos
                )
            self.expect(_T_LP, "'('")
            gens = self.parse_int_list()
            self.expect(_T_RP, "')'")
            base = Quotient(base, tuple(gens))
        return base

    def parse_int_list(self):
        gens = []
        if self.peek()[0] == _T_INT:
            gens.append(self.next()[1])
            while self.peek()[0] == _T_COMMA:
                self.next()
                gens.append(self.expect(_T_INT, "an integer")[1])
        return gens

    def finish(self):
        tok = self.peek()
        if tok[0] != _T_EOF:
            raise SpecSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a ring-spec string; raises `SpecSyntaxError` with the offending
    position on malformed input and `SpecError` on semantic violations."""
    parser = _Parser(text)
    spec = parser.parse_spec()
    parser.finish()
    return spec


def parse_ring_specs(text: str) -> tuple:
    """Parse a comma-separated list of ring specs, such as a family's
    ``extra_rings``; blank items are skipped, and commas inside a
    quotient's parentheses belong to its generator list."""
    parser = _Parser(text)
    specs = []
    while True:
        if parser.peek()[0] not in (_T_COMMA, _T_EOF):
            specs.append(parser.parse_spec())
        if parser.peek()[0] != _T_COMMA:
            parser.finish()
            return tuple(specs)
        parser.next()


def parse_ring_with_ideal(text: str):
    """Parse ``"<spec> ideal(gens = 4, 6)"``; the ideal clause is optional.

    Returns ``(spec, gens)`` where ``gens`` is a tuple of element literals
    (empty when the clause is absent, denoting the zero ideal).
    """
    parser = _Parser(text)
    spec = parser.parse_spec()
    gens: tuple = ()
    if parser.peek()[0] == _T_WORD and parser.peek()[1] == "ideal":
        parser.next()
        parser.expect(_T_LP, "'('")
        word = parser.expect(_T_WORD, "'gens'")
        if word[1] != "gens":
            raise SpecSyntaxError("expected 'gens'", word[2])
        parser.expect(_T_EQ, "'='")
        gens = tuple(parser.parse_int_list())
        parser.expect(_T_RP, "')'")
    parser.finish()
    return spec, gens
