"""Expected closure-lab outcomes, computed without importing closure_lab.

Two kinds of oracle:

* closed forms for cyclic prime-power rings Z_(p^c) and for Z_n and
  products Z_a x Z_b: classification by p-adic valuation, ring profile
  k = the largest prime exponent, element profile = nilpotency index
  (1 for a unit);
* a naive brute force over an explicit element list for small rings
  with no closed form here (trivial extensions, products, quotients).

Ring specs are nested tuples: ("Z", n), ("x", left, right),
("(+)", n, d) and ("/", base, generator_literals).  Elements use the
CLI's canonical order and encodings: residues for Z_n, lexicographic
pairs for products and trivial extensions, minimal coset
representatives for quotients.
"""

from __future__ import annotations

from itertools import product as pairs

CLOSED = "closed"
WEAKLY_ONLY = "weakly_only"
NOT_WEAKLY = "not_weakly"


# --- spec strings -----------------------------------------------------------


def spec_str(spec) -> str:
    kind = spec[0]
    if kind == "Z":
        return f"Z{spec[1]}"
    if kind == "(+)":
        return f"Z{spec[1]} (+) Z{spec[2]}"
    if kind == "x":
        return f"{_term_str(spec[1])} x {spec_str(spec[2])}"
    if kind == "/":
        return f"{_term_str(spec[1])}/({', '.join(str(g) for g in spec[2])})"
    raise ValueError(f"unknown spec {spec!r}")


def _term_str(spec) -> str:
    text = spec_str(spec)
    return f"({text})" if spec[0] == "x" else text


def serialize(element):
    if isinstance(element, tuple):
        return [serialize(part) for part in element]
    return element


# --- closed forms -------------------------------------------------------------


def factorize(n: int) -> dict:
    factors: dict = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def valuation(x: int, p: int, cap: int) -> int:
    """v_p(x) in Z_(p^cap), with v_p(0) = cap."""
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


def cyclic_classify(p: int, c: int, j: int, m: int, n: int):
    """(status, witness) for the ideal (p^j) of Z_(p^c), 1 <= j <= c
    (j = c is the zero ideal).  x of valuation v has x^t of valuation
    min(t v, c), so membership of x^t depends on v alone, and the first
    element of valuation v < c is p^v."""
    for v in range(c):
        if j <= m * v < c and n * v < j:
            return NOT_WEAKLY, p ** v
    for v in range(c):
        if m * v >= c and n * v < j:
            return WEAKLY_ONLY, p ** v
    return CLOSED, None


def cyclic_element_profile(p: int, c: int, x: int) -> int:
    """Nilpotency index of x in Z_(p^c), or 1 for a unit."""
    v = valuation(x, p, c)
    if v == 0 or v == c:
        return 1
    return -(-c // v)


def cyclic_ring_profile(n: int):
    """(k, first element with element profile k) for Z_n.

    Component profiles are ceil(e / v) for p | x and 1 otherwise, so the
    maximum k is the largest exponent e, reached first at the smallest
    prime p with that exponent (v_p(p) = 1); for squarefree n every
    element has profile 1 and the witness is 0."""
    exponents = factorize(n)
    k = max(exponents.values())
    if k == 1:
        return 1, 0
    return k, min(p for p, e in exponents.items() if e == k)


def product_ring_profile(a: int, b: int):
    """(k, witness) for Z_a x Z_b: k is the factor maximum; pairs are
    ordered lexicographically and 0 has profile 1."""
    ka, wa = cyclic_ring_profile(a)
    kb, wb = cyclic_ring_profile(b)
    k = max(ka, kb)
    if k == 1:
        return 1, (0, 0)
    if kb == k:
        return k, (0, wb)
    return k, (wa, 0)


# --- naive rings --------------------------------------------------------------


class NaiveRing:
    """A finite commutative ring as an explicit element list."""

    def __init__(self, elements, zero, one, add, mul):
        self.elements = tuple(elements)
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul

    def power(self, x, t: int):
        result = self.one
        for _ in range(t):
            result = self.mul(result, x)
        return result

    def ideal(self, generators) -> frozenset:
        """All sums r1 g1 + ... + rk gk: each R g is an additive group,
        so the ideal is their sumset."""
        members = {self.zero}
        for g in generators:
            multiples = {self.mul(r, g) for r in self.elements}
            members = {self.add(a, b) for a in members for b in multiples}
        return frozenset(members)


def build(spec) -> NaiveRing:
    kind = spec[0]
    if kind == "Z":
        n = spec[1]
        return NaiveRing(
            range(n), 0, 1 % n, lambda x, y: (x + y) % n, lambda x, y: (x * y) % n
        )
    if kind == "(+)":
        n, d = spec[1], spec[2]
        return NaiveRing(
            pairs(range(n), range(d)),
            (0, 0),
            (1, 0),
            lambda x, y: ((x[0] + y[0]) % n, (x[1] + y[1]) % d),
            lambda x, y: ((x[0] * y[0]) % n, (x[0] * y[1] + y[0] * x[1]) % d),
        )
    if kind == "x":
        left, right = build(spec[1]), build(spec[2])
        return NaiveRing(
            pairs(left.elements, right.elements),
            (left.zero, right.zero),
            (left.one, right.one),
            lambda x, y: (left.add(x[0], y[0]), right.add(x[1], y[1])),
            lambda x, y: (left.mul(x[0], y[0]), right.mul(x[1], y[1])),
        )
    if kind == "/":
        base = build(spec[1])
        members = base.ideal(base.elements[g] for g in spec[2])
        if base.one in members:
            raise ValueError("improper quotient")
        rep: dict = {}
        reps = []
        for e in base.elements:
            if e not in rep:
                reps.append(e)
                for i in members:
                    rep[base.add(e, i)] = e
        return NaiveRing(
            reps,
            rep[base.zero],
            rep[base.one],
            lambda x, y: rep[base.add(x, y)],
            lambda x, y: rep[base.mul(x, y)],
        )
    raise ValueError(f"unknown spec {spec!r}")


def brute_classify(ring: NaiveRing, ideal: frozenset, m: int, n: int):
    """The definition: the first x with 0 != x^m in I and x^n not in I
    makes the ideal not weakly closed; otherwise the first x with
    x^m = 0 and x^n not in I makes it weakly closed only."""
    first_unbreakable = None
    for x in ring.elements:
        xm = ring.power(x, m)
        if xm in ideal and ring.power(x, n) not in ideal:
            if xm != ring.zero:
                return NOT_WEAKLY, x
            if first_unbreakable is None:
                first_unbreakable = x
    if first_unbreakable is not None:
        return WEAKLY_ONLY, first_unbreakable
    return CLOSED, None


def brute_element_profile(ring: NaiveRing, x) -> int:
    """Smallest k with x^(k+1) r = x^k solvable for r."""
    k = 1
    while True:
        target = ring.power(x, k)
        step = ring.power(x, k + 1)
        if any(ring.mul(step, r) == target for r in ring.elements):
            return k
        k += 1


def brute_ring_profile(ring: NaiveRing):
    profiles = [brute_element_profile(ring, x) for x in ring.elements]
    k = max(profiles)
    return k, ring.elements[profiles.index(k)]
