"""The seeded stream of one-shot CLI queries for the `queries` workload.

The stream is a sequence of blocks.  Every block holds one query from
each template below, in a seeded order, with seeded parameters, so each
block has the same mix: eight light queries, whose time is mostly CLI
cold start, and three heavy ones, whose time is mostly large-ring
compute.  With 8 of 11 light, the median falls well inside the light
group and the 90th percentile well inside the heavy group.  The heavy
rings are of about the same cost and are taken in turn, and the largest
ring of a block is always the same, so that the percentiles and the peak
RSS depend on the code and not on the seed.

Expectations come from `oracle` and never from closure_lab.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import oracle

# Z_(p^c) up to 2^13.  Below order 2048 closure-lab classifies cyclic
# rings element by element, from 2048 on with numpy; both are covered.
PRIME_POWERS = tuple(
    (p, c) for p in (2, 3, 5, 7) for c in range(2, 14) if p ** c <= 8192
)
GENERIC_CYCLIC = tuple(pc for pc in PRIME_POWERS if pc[0] ** pc[1] < 2048)
VECTOR_CYCLIC = tuple(pc for pc in PRIME_POWERS if pc[0] ** pc[1] >= 2048)

# Heavy profiles: rings of order 1000-2401 whose profiles each took
# 0.85-1.05 s on a 2-CPU machine, against 0.3-0.6 s for any light query.
HEAVY_CYCLIC = ((2, 11), (3, 7), (7, 4))
HEAVY_PRODUCTS = ((8, 125), (125, 8), (9, 128), (128, 9))
HEAVY_COMPOSITE = ((2000,),)
# the largest ring of every block: a trivial extension of order 32768
EXTENSION = ("(+)", 8192, 4)

GRID_M = 6
GRID_N = 5
IMPROPER_README_EXAMPLE = "(Z4 x Z4)/(5)"


@dataclass(frozen=True)
class Query:
    template: str
    argv: tuple
    expect: Callable[[], dict]  # {"exit": code, "records": [...] or None}


def _ok(records, exit_code=0) -> dict:
    return {"exit": exit_code, "records": records}


def _error() -> dict:
    return {"exit": 1, "records": None}


def _check_record(spec, gens, m, n, status, witness) -> dict:
    record = {
        "ideal_gens": [oracle.serialize(g) for g in gens],
        "m": m,
        "n": n,
        "ring_spec": oracle.spec_str(spec),
        "status": status,
    }
    if witness is not None:
        record["witness"] = oracle.serialize(witness)
    return record


def _profile_record(spec, k, witness) -> dict:
    return {
        "k": k,
        "per_element_max_witness": oracle.serialize(witness),
        "ring_spec": oracle.spec_str(spec),
        "strongly_pi_regular": True,
    }


def _check_argv(spec, literals, m, n) -> tuple:
    return (
        "check", "--ring", oracle.spec_str(spec),
        "--ideal", ",".join(str(x) for x in literals),
        "--m", str(m), "--n", str(n), "--format", "machine",
    )


def _profile_argv(spec, *extra) -> tuple:
    return ("profile", "--ring", oracle.spec_str(spec), *extra, "--format", "machine")


def _cyclic_ideal(rng, p, c):
    """(j, literal) for the ideal (p^j); j = c is the zero ideal."""
    j = rng.randint(1, c)
    return j, (0 if j == c else p ** j)


def _cyclic_check(rng, pool, template) -> Query:
    p, c = rng.choice(pool)
    j, literal = _cyclic_ideal(rng, p, c)
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    spec = ("Z", p ** c)

    def expect():
        status, witness = oracle.cyclic_classify(p, c, j, m, n)
        code = 2 if status == oracle.NOT_WEAKLY else 0
        return _ok([_check_record(spec, [literal], m, n, status, witness)], code)

    return Query(template, _check_argv(spec, [literal], m, n), expect)


def _generic_check(rng) -> Query:
    return _cyclic_check(rng, GENERIC_CYCLIC, "check-cyclic")


def _vector_check(rng) -> Query:
    return _cyclic_check(rng, VECTOR_CYCLIC, "check-cyclic-large")


def _classify_grid(rng) -> Query:
    p, c = rng.choice(PRIME_POWERS)
    j, literal = _cyclic_ideal(rng, p, c)
    spec = ("Z", p ** c)
    argv = (
        "classify", "--ring", oracle.spec_str(spec), "--ideal", str(literal),
        "--m", f"1..{GRID_M}", "--n", f"1..{GRID_N}", "--format", "machine",
    )

    def expect():
        return _ok([
            _check_record(spec, [literal], m, n, *oracle.cyclic_classify(p, c, j, m, n))
            for m in range(1, GRID_M + 1)
            for n in range(1, GRID_N + 1)
        ])

    return Query("classify-grid", argv, expect)


def _element_profile(rng) -> Query:
    p, c = rng.choice(PRIME_POWERS)
    x = rng.randrange(p ** c)
    spec = ("Z", p ** c)

    def expect():
        k = oracle.cyclic_element_profile(p, c, x)
        return _ok([{"element": x, "k": k, "ring_spec": oracle.spec_str(spec)}])

    return Query("profile-element", _profile_argv(spec, "--element", str(x)), expect)


def _small_profile(rng) -> Query:
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(2, 256)
        spec, closed = ("Z", n), lambda: oracle.cyclic_ring_profile(n)
    elif kind == 1:
        a, b = rng.randint(2, 16), rng.randint(2, 16)
        spec, closed = ("x", ("Z", a), ("Z", b)), lambda: oracle.product_ring_profile(a, b)
    elif kind == 2:
        p, c = rng.choice([pc for pc in PRIME_POWERS if pc[0] ** pc[1] <= 256])
        j = rng.randint(1, c - 1)
        # Z_(p^c)/(p^j) is Z_(p^j), with residues below p^j as coset minima
        spec, closed = ("/", ("Z", p ** c), (p ** j,)), lambda: oracle.cyclic_ring_profile(p ** j)
    else:
        n = rng.randint(2, 12)
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        spec = ("(+)", n, d)
        closed = lambda: oracle.brute_ring_profile(oracle.build(spec))

    def expect():
        k, witness = closed()
        return _ok([_profile_record(spec, k, witness)])

    return Query("profile-small", _profile_argv(spec), expect)


def _non_unit(rng, n: int) -> int:
    return rng.choice([x for x in range(n) if math.gcd(x, n) > 1])


def _brute_check_query(template, spec, literals, m, n) -> Query:
    def expect():
        ring = oracle.build(spec)
        gens = [ring.elements[i] for i in literals]
        status, witness = oracle.brute_classify(ring, ring.ideal(gens), m, n)
        code = 2 if status == oracle.NOT_WEAKLY else 0
        return _ok([_check_record(spec, gens, m, n, status, witness)], code)

    return Query(template, _check_argv(spec, literals, m, n), expect)


def _extension_check(rng) -> Query:
    _, n, d = EXTENSION
    # a generator (r, u) with r a non-unit generates a proper ideal
    literals = [_non_unit(rng, n) * d + rng.randrange(d)]
    return _brute_check_query("check-extension", EXTENSION, literals,
                              rng.randint(1, 6), rng.randint(1, 6))


def _small_check(rng) -> Query:
    if rng.random() < 0.5:
        a, b = rng.randint(2, 32), rng.randint(2, 32)
        spec = ("x", ("Z", a), ("Z", b))
        literals = [_non_unit(rng, a) * b + rng.randrange(b)]
    else:
        a, b = rng.randint(2, 8), rng.randint(2, 8)
        base = ("x", ("Z", a), ("Z", b))
        spec = ("/", base, (_non_unit(rng, a) * b + rng.randrange(b),))
        ring = oracle.build(spec)
        proper = [i for i, x in enumerate(ring.elements) if ring.one not in ring.ideal([x])]
        literals = [rng.choice(proper)]
    return _brute_check_query("check-small", spec, literals,
                              rng.randint(1, 6), rng.randint(1, 6))


def _expected_error(rng) -> Query:
    kind = rng.randrange(3)
    if kind == 0:
        if rng.random() < 0.5:
            ring = IMPROPER_README_EXAMPLE
        else:
            a, b = rng.randint(2, 9), rng.randint(2, 9)
            unit = rng.choice([x for x in range(a) if math.gcd(x, a) == 1]) * b + 1
            ring = oracle.spec_str(("/", ("x", ("Z", a), ("Z", b)), (unit,)))
        argv = ("profile", "--ring", ring, "--format", "machine")
    elif kind == 1:
        n = rng.randint(2, 8192)
        literal = str(n + rng.randrange(n))
        if rng.random() < 0.5:
            argv = ("check", "--ring", f"Z{n}", "--ideal", literal,
                    "--m", "2", "--n", "1", "--format", "machine")
        else:
            argv = ("profile", "--ring", f"Z{n}", "--element", literal, "--format", "machine")
    else:
        n = rng.randint(64, 8192)
        argv = ("profile", "--ring", f"Z{n}", "--max-order", str(rng.randint(2, n - 1)),
                "--format", "machine")
    return Query("expected-error", argv, _error)


def _heavy_cyclic(p, c) -> Query:
    spec = ("Z", p ** c)
    return Query("profile-cyclic-large", _profile_argv(spec),
                 lambda: _ok([_profile_record(spec, c, p)]))


def _heavy_product(a, b) -> Query:
    spec = ("x", ("Z", a), ("Z", b))
    return Query("profile-product-large", _profile_argv(spec),
                 lambda: _ok([_profile_record(spec, *oracle.product_ring_profile(a, b))]))


def _heavy_composite(n) -> Query:
    spec = ("Z", n)
    return Query("profile-composite-large", _profile_argv(spec),
                 lambda: _ok([_profile_record(spec, *oracle.cyclic_ring_profile(n))]))


LIGHT_TEMPLATES = (
    _generic_check,
    _vector_check,
    _classify_grid,
    _element_profile,
    _small_profile,
    _small_check,
    _extension_check,
    _expected_error,
)
# heavy queries take their ring in turn by block index, not from the
# seed, so runs of equally many blocks share the same heavy mix
HEAVY_TEMPLATES = (
    (_heavy_cyclic, HEAVY_CYCLIC),
    (_heavy_product, HEAVY_PRODUCTS),
    (_heavy_composite, HEAVY_COMPOSITE),
)
BLOCK_SIZE = len(LIGHT_TEMPLATES) + len(HEAVY_TEMPLATES)


def draw_block(seed: int, index: int) -> list:
    """Block `index` of the stream for `seed`: one query per template,
    shuffled.  The same (seed, index) always gives the same block."""
    rng = random.Random(f"closure-lab-queries:{seed}:{index}")
    block = [template(rng) for template in LIGHT_TEMPLATES]
    block += [template(*pool[index % len(pool)]) for template, pool in HEAVY_TEMPLATES]
    rng.shuffle(block)
    return block
