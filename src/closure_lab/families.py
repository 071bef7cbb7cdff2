"""Instance families: which rings, exponent pairs, and bounds the
theorem verifier sweeps.

The default family covers every ideal of Z_n for n up to 64, the
products Z_a x Z_b for a, b in {2, 3, 4, 8, 9, 16}, the trivial
extensions Z_n (+) Z_d for n up to 16 and d | n, and the cyclic
prime-power rings Z_(p**c) (p in {2, 3}, c up to 13, inside the order
cap) for the principal-ideal checks.  Exponent pairs sweep
1 <= n < m <= 6, with a handful of m <= n spot checks.

Custom families are plain key = value files, see `parse_family_config`.
"""

from __future__ import annotations

from functools import cached_property

from .records import Record, _set
from .rings import DEFAULT_ORDER_CAP, _is_prime_number
from .specs import CyclicZ, Idealization, Product, parse_ring_specs

DEFAULT_PRODUCT_MODULI = (2, 3, 4, 8, 9, 16)


class InstanceFamily(Record):
    _fields = (
        "ring_specs",
        "principal_cases",
        "mn_pairs",
        "spot_pairs",
        "grid_max",
        "grid_order_cap",
        "quotient_order_cap",
        "spr_order_cap",
        "absorbing_budget",
        "max_order",
    )

    def __init__(
        self,
        ring_specs: tuple,
        principal_cases: tuple,  # (prime, exponent) pairs for Z_(p**c)
        mn_pairs: tuple,  # the n < m sweep
        spot_pairs: tuple,  # m <= n spot checks
        grid_max: int = 6,
        grid_order_cap: int = 32,
        quotient_order_cap: int = 64,
        spr_order_cap: int = 32,
        absorbing_budget: int = 2 ** 18,
        max_order: int = DEFAULT_ORDER_CAP,
    ):
        values = (
            ring_specs,
            principal_cases,
            mn_pairs,
            spot_pairs,
            grid_max,
            grid_order_cap,
            quotient_order_cap,
            spr_order_cap,
            absorbing_budget,
            max_order,
        )
        _set(self, "_values", values)
        # made once per run: the fields go straight into the instance dict,
        # where `cached_property` keeps its values too
        self.__dict__.update(zip(self._fields, values))

    # computed once: the fields are frozen, and `replace` builds a new instance
    @cached_property
    def all_pairs(self) -> tuple:
        return self.mn_pairs + self.spot_pairs

    @cached_property
    def n_values(self) -> tuple:
        return tuple(sorted({n for _, n in self.mn_pairs}))

    @cached_property
    def max_exponent(self) -> int:
        """The largest m or n any checker asks about: `grid_max`, an
        exponent of `all_pairs`, or n + 1 for n in `n_values`."""
        return max(
            (
                self.grid_max,
                *(e for pair in self.all_pairs for e in pair),
                *(n + 1 for n in self.n_values),
            )
        )


def _mn_sweep(m_max: int) -> tuple:
    return tuple((m, n) for m in range(2, m_max + 1) for n in range(1, m))


DEFAULT_SPOT_PAIRS = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (2, 6))


def _family_specs(cyclic_moduli, product_moduli, idealization_max, extra_specs):
    specs: list = [CyclicZ(n) for n in cyclic_moduli]
    specs.extend(
        Product(CyclicZ(a), CyclicZ(b)) for a in product_moduli for b in product_moduli
    )
    for n in range(2, idealization_max + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                specs.append(Idealization(n, d))
    specs.extend(extra_specs)
    return tuple(specs)


def _principal_cases(primes, max_exponent, max_order):
    cases = []
    for p in primes:
        if not _is_prime_number(p):
            raise ValueError(f"principal_primes must be primes, got {p}")
        for c in range(2, max_exponent + 1):
            if p ** c <= max_order:
                cases.append((p, c))
    return tuple(cases)


def make_family(
    cyclic_moduli=tuple(range(2, 65)),
    product_moduli=DEFAULT_PRODUCT_MODULI,
    idealization_max=16,
    principal_primes=(2, 3),
    principal_max_exponent=13,
    m_max=6,
    spot_pairs=DEFAULT_SPOT_PAIRS,
    extra_specs=(),
    **bounds,
) -> InstanceFamily:
    max_order = bounds.get("max_order", DEFAULT_ORDER_CAP)
    if bounds.get("grid_max", 1) < 1:
        raise ValueError(f"grid_max must be at least 1, got {bounds['grid_max']}")
    return InstanceFamily(
        ring_specs=_family_specs(cyclic_moduli, product_moduli, idealization_max, extra_specs),
        principal_cases=_principal_cases(principal_primes, principal_max_exponent, max_order),
        mn_pairs=_mn_sweep(m_max),
        spot_pairs=tuple(spot_pairs),
        **bounds,
    )


def default_family() -> InstanceFamily:
    return make_family()


def tiny_family(**overrides) -> InstanceFamily:
    """A fast family for unit tests and quick experiments."""
    settings = dict(
        cyclic_moduli=tuple(range(2, 17)),
        product_moduli=(2, 3, 4),
        idealization_max=8,
        principal_primes=(2,),
        principal_max_exponent=7,
        m_max=4,
        grid_order_cap=16,
        quotient_order_cap=16,
        spr_order_cap=16,
        absorbing_budget=2 ** 12,
    )
    settings.update(overrides)
    return make_family(**settings)


# --- config files ------------------------------------------------------------

_INT_KEYS = {
    "cyclic_max",
    "idealization_max",
    "principal_max_exponent",
    "m_max",
    "grid_max",
    "grid_order_cap",
    "quotient_order_cap",
    "spr_order_cap",
    "max_generators",
    "absorbing_budget",
    "max_order",
}
_INT_LIST_KEYS = {"cyclic_moduli", "product_moduli", "principal_primes"}
_SPEC_LIST_KEYS = {"extra_rings"}


class FamilyConfigError(ValueError):
    pass


def parse_family_config(text: str) -> InstanceFamily:
    """Parse a family config: one ``key = value`` per line, ``#`` comments,
    comma-separated lists.

    Keys: cyclic_max or cyclic_moduli, product_moduli, idealization_max,
    principal_primes, principal_max_exponent, m_max, extra_rings (ring
    specs), grid_max, grid_order_cap, quotient_order_cap, spr_order_cap,
    absorbing_budget, max_order.  ``max_generators`` is accepted and
    ignored: it once bounded ideal enumeration, which is now complete
    without a bound.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FamilyConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _INT_LIST_KEYS:
                values[key] = tuple(int(part) for part in value.split(",") if part.strip())
            elif key in _SPEC_LIST_KEYS:
                values[key] = parse_ring_specs(value)
            else:
                raise FamilyConfigError(f"line {lineno}: unknown key {key!r}")
        except FamilyConfigError:
            raise
        except ValueError as exc:
            raise FamilyConfigError(f"line {lineno}: {exc}") from exc
    values.pop("max_generators", None)
    if "cyclic_max" in values:
        values.setdefault("cyclic_moduli", tuple(range(2, values.pop("cyclic_max") + 1)))
    if "extra_rings" in values:
        values["extra_specs"] = values.pop("extra_rings")
    return make_family(**values)


def load_family(source: str) -> InstanceFamily:
    """"default", or a path to a family config file."""
    if source == "default":
        return default_family()
    with open(source, "r", encoding="utf-8") as handle:
        return parse_family_config(handle.read())


def with_max_order(family: InstanceFamily, max_order: int) -> InstanceFamily:
    principal = tuple((p, c) for p, c in family.principal_cases if p ** c <= max_order)
    return family.replace(max_order=max_order, principal_cases=principal)
