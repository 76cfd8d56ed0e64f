"""Shared table fixtures.

Tables are immutable after construction, so session scope is safe; the big
builds (10^6 limit, 10^7 prime cutoff) happen once per test run.
"""

import numpy as np
import pytest

from vaughanlab import FRConfig, arith, build_sieve, build_tables, constant_set


@pytest.fixture
def reset_primes(monkeypatch):
    """Empty prime_array's held list, now and at each call of the returned function.

    The list held before the test comes back when the test ends.
    """

    def reset():
        monkeypatch.setattr(arith, "_held", (1, np.empty(0, dtype=np.int64)))

    reset()
    return reset


@pytest.fixture(scope="session")
def tables_small():
    return build_tables(build_sieve(2_000))


@pytest.fixture(scope="session")
def tables_1e4():
    return build_tables(build_sieve(10_000))


@pytest.fixture(scope="session")
def tables_1e5():
    return build_tables(build_sieve(100_000))


@pytest.fixture(scope="session")
def tables_1e6():
    return build_tables(build_sieve(1_000_000))


@pytest.fixture(scope="session")
def cs():
    return constant_set()


@pytest.fixture(scope="session")
def cfg50_1e6(tables_1e6):
    return FRConfig(R=50.0, tables=tables_1e6)
