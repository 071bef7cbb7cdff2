"""Independent brute-force oracles for the test suite.

Everything here is written straight from the definitions, with naive
loops and no shared code paths with the package, so oracle/implementation
agreement is a real check.
"""

from itertools import combinations_with_replacement, product


def brute_units(ring):
    return frozenset(
        x for x in ring.elements if any(ring.mul(x, y) == ring.one for y in ring.elements)
    )


def brute_zero_divisors(ring):
    return frozenset(
        x
        for x in ring.elements
        if x != ring.zero
        and any(y != ring.zero and ring.mul(x, y) == ring.zero for y in ring.elements)
    )


def brute_nilpotents(ring):
    out = set()
    for x in ring.elements:
        y = x
        for _ in range(ring.order):
            if y == ring.zero:
                out.add(x)
                break
            y = ring.mul(y, x)
    return frozenset(out)


def brute_power(ring, x, t):
    acc = ring.one
    for _ in range(t):
        acc = ring.mul(acc, x)
    return acc


def brute_additive_order(ring, x):
    acc = x
    k = 1
    while acc != ring.zero:
        acc = ring.add(acc, x)
        k += 1
    return k


def naive_ideal_closure(ring, gens):
    """Fixpoint closure under addition and ring multiplication."""
    members = {ring.zero, *gens}
    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for a in snapshot:
            for b in snapshot:
                s = ring.add(a, b)
                if s not in members:
                    members.add(s)
                    changed = True
            for r in ring.elements:
                p = ring.mul(r, a)
                if p not in members:
                    members.add(p)
                    changed = True
    return frozenset(members)


def brute_all_ideals(ring):
    """Every subset containing zero whose size divides the order and which
    is closed under addition, negation, and ring multiplication.  Only
    usable for small orders."""
    from itertools import combinations

    others = [x for x in ring.elements if x != ring.zero]
    found = set()
    for size in (d for d in range(1, ring.order + 1) if ring.order % d == 0):
        for extra in combinations(others, size - 1):
            candidate = frozenset((ring.zero, *extra))
            if _is_ideal(ring, candidate):
                found.add(candidate)
    return found


def brute_ideal_lattice(ring):
    """Every ideal at any order: the additive subgroups, found by joining
    single elements onto subgroups until nothing new appears, that
    absorb multiplication.  Each subgroup keeps the elements it was
    joined from, so absorption is checked on those alone."""

    def join(group, x):
        # group + <x>: the cosets group + kx until kx falls back into group
        out = set(group)
        shift = x
        while shift not in group:
            out.update(ring.add(shift, h) for h in group)
            shift = ring.add(shift, x)
        return frozenset(out)

    zero = frozenset({ring.zero})
    subgroups = {zero: ()}
    todo = [zero]
    while todo:
        group = todo.pop()
        gens = subgroups[group]
        seen = set()
        for x in ring.elements:
            if x in seen:
                continue
            # group + <x> depends only on the coset x + group
            seen.update(ring.add(x, h) for h in group)
            if x in group:
                continue
            joined = join(group, x)
            if joined not in subgroups:
                subgroups[joined] = gens + (x,)
                todo.append(joined)
    return {
        group
        for group, gens in subgroups.items()
        if all(ring.mul(r, g) in group for g in gens for r in ring.elements)
    }


def brute_quotient(ring, members):
    """{x: the least member of the coset x + I} over every element, for the
    ideal I with element set `members`: a scan of the ring in canonical
    order, whose first unassigned element is the least member of its coset."""
    least = {}
    for x in ring.elements:
        if x not in least:
            for j in members:
                least[ring.add(x, j)] = x
    return least


def brute_ideal_sum(ring, first, second):
    """I + J = {a + b : a in I, b in J} for ideals I and J: the union of
    the cosets b + I over b in J, each coset listed once."""
    total = set()
    for b in second:
        if b not in total:
            total.update(ring.add(b, a) for a in first)
    return frozenset(total)


def _is_ideal(ring, subset):
    for a in subset:
        if ring.neg(a) not in subset:
            return False
        for b in subset:
            if ring.add(a, b) not in subset:
                return False
        for r in ring.elements:
            if ring.mul(r, a) not in subset:
                return False
    return True


def brute_is_mn_closed(ring, members, m, n):
    for x in ring.elements:
        if brute_power(ring, x, m) in members and brute_power(ring, x, n) not in members:
            return False
    return True


def brute_is_weakly_mn_closed(ring, members, m, n):
    for x in ring.elements:
        xm = brute_power(ring, x, m)
        if xm != ring.zero and xm in members and brute_power(ring, x, n) not in members:
            return False
    return True


def brute_first_failures(ring, members, m, n):
    """(first x with x**m in I and x**n not in I, first such x with
    x**m != 0), each None when there is none."""
    failing = [
        x
        for x in ring.elements
        if brute_power(ring, x, m) in members and brute_power(ring, x, n) not in members
    ]
    nonzero = [x for x in failing if brute_power(ring, x, m) != ring.zero]
    return (failing[0] if failing else None, nonzero[0] if nonzero else None)


def brute_unbreakable(ring, members, m, n):
    return tuple(
        a
        for a in ring.elements
        if brute_power(ring, a, m) == ring.zero
        and brute_power(ring, a, n) not in members
    )


def brute_multiples(ring, a):
    """The principal ideal aR, listed product by product."""
    return frozenset(ring.mul(a, r) for r in ring.elements)


def brute_divides(ring, a, b):
    """b in aR: some r has a*r == b."""
    return any(ring.mul(a, r) == b for r in ring.elements)


def brute_least_associates(ring):
    """The least member, in canonical order, of each distinct principal
    ideal; in a finite ring xR == yR exactly when x and y are associates."""
    least = {}
    for x in ring.elements:
        least.setdefault(brute_multiples(ring, x), x)
    return frozenset(least.values())


def brute_vnr_witness(ring, x, m, n):
    """First r in canonical order with x**m * r == x**n, or None."""
    xm = brute_power(ring, x, m)
    xn = brute_power(ring, x, n)
    return next((r for r in ring.elements if ring.mul(xm, r) == xn), None)


def brute_is_prime(ring, members):
    """xy in I forces x in I or y in I."""
    return not any(
        ring.mul(x, y) in members
        for x in ring.elements
        for y in ring.elements
        if x not in members and y not in members
    )


def brute_krull_dim(ring):
    """The longest strict chain of prime ideals, minus one, over every
    ideal of `brute_ideal_lattice`, each tested by `brute_is_prime`."""
    primes = [
        group
        for group in brute_ideal_lattice(ring)
        if ring.one not in group and brute_is_prime(ring, group)
    ]
    longest = {}
    for p in sorted(primes, key=len):
        longest[p] = 1 + max((longest[q] for q in longest if q < p), default=0)
    return max(longest.values(), default=0) - 1


def brute_first_weakly_prime_failure(ring, members):
    """First (x, y) in nested-loop order over all elements with x and y
    outside I and 0 != xy in I, or None."""
    for x in ring.elements:
        for y in ring.elements:
            if x in members or y in members:
                continue
            xy = ring.mul(x, y)
            if xy != ring.zero and xy in members:
                return (x, y)
    return None


def brute_first_weakly_radical_failure(ring, members):
    """First x outside I, with its least t <= order, such that
    0 != x**t in I; None when there is none."""
    for x in ring.elements:
        if x in members:
            continue
        xt = ring.one
        for t in range(1, ring.order + 1):
            xt = ring.mul(xt, x)
            if xt != ring.zero and xt in members:
                return (x, t)
    return None


def brute_element_profile(ring, x):
    """Least k with x**(k+1) dividing x**k."""
    k = 1
    while not brute_divides(ring, brute_power(ring, x, k + 1), brute_power(ring, x, k)):
        k += 1
    return k


def brute_is_n_absorbing(ring, members, n, weak):
    for combo in product(ring.elements, repeat=n + 1):
        total = ring.one
        for f in combo:
            total = ring.mul(total, f)
        if total not in members:
            continue
        if weak and total == ring.zero:
            continue
        good = False
        for skip in range(n + 1):
            sub = ring.one
            for i, f in enumerate(combo):
                if i != skip:
                    sub = ring.mul(sub, f)
            if sub in members:
                good = True
                break
        if not good:
            return False
    return True


def brute_first_absorbing_failure(ring, members, n, weak):
    """First multiset of n+1 elements, in combinations_with_replacement
    order, whose product lies in I (nonzero, if weak) while no product of
    n of them does; None when there is none."""
    for combo in combinations_with_replacement(ring.elements, n + 1):
        total = ring.one
        for f in combo:
            total = ring.mul(total, f)
        if total not in members or (weak and total == ring.zero):
            continue
        subproducts = []
        for skip in range(n + 1):
            sub = ring.one
            for i, f in enumerate(combo):
                if i != skip:
                    sub = ring.mul(sub, f)
            subproducts.append(sub)
        if all(sub not in members for sub in subproducts):
            return combo
    return None


def exhaustive_ring_axioms(ring):
    """Commutativity, associativity, distributivity, identities, inverses;
    cubic in the order, so call it on small rings only."""
    elements = ring.elements
    for x in elements:
        assert ring.add(x, ring.zero) == x
        assert ring.mul(x, ring.one) == x
        assert ring.add(x, ring.neg(x)) == ring.zero
        for y in elements:
            assert ring.add(x, y) == ring.add(y, x)
            assert ring.mul(x, y) == ring.mul(y, x)
            for z in elements:
                assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
                assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
                assert ring.mul(x, ring.add(y, z)) == ring.add(
                    ring.mul(x, y), ring.mul(x, z)
                )



def brute_power_thresholds(ring, members, elements=None):
    """{x: (tau, nu)} over `elements` (default: every element): tau the
    least t with x**t in I and nu the least t with x**t == 0, each looked
    for up to t = order + 1 and None when not found there.  x**t is built
    one multiplication at a time, so the search reaches order 65536."""
    out = {}
    for x in ring.elements if elements is None else elements:
        tau = nu = None
        xt = ring.one
        for t in range(1, ring.order + 2):
            xt = ring.mul(xt, x)
            if tau is None and xt in members:
                tau = t
            if xt == ring.zero:
                nu = t
                break
        out[x] = (tau, nu)
    return out


def brute_shift_triples(ring, members):
    """{(nu(a), tau(a), worst(a))} over the nilpotents a with tau(a) > 1:
    nu the least t with a**t == 0, tau the least t with a**t in I, and
    worst the largest nu over the coset a + I, inf when it holds a
    non-nilpotent; each from brute powers and brute sums."""

    def index(x):
        xt = x
        for t in range(1, ring.order + 1):
            if xt == ring.zero:
                return t
            xt = ring.mul(xt, x)
        return float("inf")

    triples = set()
    for a in ring.elements:
        nu = index(a)
        if nu == float("inf"):
            continue
        tau = next(t for t in range(1, nu + 1) if brute_power(ring, a, t) in members)
        if tau > 1:
            triples.add((nu, tau, max(index(ring.add(a, i)) for i in members)))
    return frozenset(triples)
