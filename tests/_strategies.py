"""Shared ring specs: hypothesis strategies for small rings of every kind,
and a fixed list of rings of every kind."""

from hypothesis import strategies as st

from closure_lab import CyclicZ, Idealization, Product, Quotient, build_ring

cyclic_specs = st.integers(2, 24).map(CyclicZ)

product_specs = st.tuples(st.integers(2, 8), st.integers(2, 8)).map(
    lambda ab: Product(CyclicZ(ab[0]), CyclicZ(ab[1]))
)


@st.composite
def idealization_specs(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    return Idealization(n, d)


@st.composite
def quotient_specs(draw):
    n = draw(st.integers(4, 24))
    g = draw(st.integers(1, n - 1))
    if _gcd(g, n) == 1:  # keep the ideal proper
        g = 0
    return Quotient(CyclicZ(n), (g,))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


ring_specs = st.one_of(cyclic_specs, product_specs, idealization_specs(), quotient_specs())

small_rings = ring_specs.map(build_ring)

# rings of every kind whose class tables leave out most elements
KIND_RINGS = [
    "Z12", "Z16", "Z30", "Z2 x Z4", "Z4 x Z6", "(Z4 (+) Z2) x Z2",
    "Z4 (+) Z2", "Z8 (+) Z4", "Z12 (+) Z6", "Z9 (+) Z3",
    "Z24/(8)", "Z30/(6)", "(Z4 x Z4)/(2)", "Z24/(8) x Z4",
]
