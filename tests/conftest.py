"""Fixtures shared by the CLI-level tests."""

import pytest


@pytest.fixture(scope="session")
def family_file(tmp_path_factory):
    """A small family config: every theorem runs over it in well under a
    second."""
    path = tmp_path_factory.mktemp("families") / "small.family"
    path.write_text(
        "# a small family\n"
        "cyclic_max = 12\n"
        "product_moduli = 2, 3\n"
        "idealization_max = 4\n"
        "principal_primes = 2\n"
        "principal_max_exponent = 6\n"
        "m_max = 3\n",
        encoding="utf-8",
    )
    return str(path)
