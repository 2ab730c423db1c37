import pytest

from pmscheme import build_table_oracle, intersection_numbers


@pytest.fixture(scope="session")
def idata():
    """Memoized intersection data per n, shared across the whole run."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = intersection_numbers(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def oracle_table(idata):
    """Memoized oracle tables per n: zonal tables that passed the character
    check against the shared brute-force intersection data."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_table_oracle(n, seed=0, data=idata(n))
        return cache[n]

    return get
