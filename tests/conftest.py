import pytest

from klcat.coxeter import build_group, preset_matrix
from klcat.kl import compute_kl


@pytest.fixture(scope="session")
def a2():
    return build_group(preset_matrix("A2"), 1000)


@pytest.fixture(scope="session")
def a3():
    return build_group(preset_matrix("A3"), 1000)


@pytest.fixture(scope="session")
def a4():
    return build_group(preset_matrix("A4"), 1000)


@pytest.fixture(scope="session")
def i2():
    tables = {}

    def get(m):
        if m not in tables:
            tables[m] = build_group(preset_matrix(f"I2({m})"), 1000)
        return tables[m]

    return get


@pytest.fixture(scope="session")
def kl_a2(a2):
    return compute_kl(a2, a2.complete_length)


@pytest.fixture(scope="session")
def kl_a3(a3):
    return compute_kl(a3, a3.complete_length)


@pytest.fixture(scope="session")
def kl_i2(i2):
    tables = {}

    def get(m):
        if m not in tables:
            t = i2(m)
            tables[m] = compute_kl(t, t.complete_length)
        return tables[m]

    return get


@pytest.fixture(scope="session")
def ladder():
    """``ladder(name)`` is (table, KL table to its complete length) for a LADDER group."""
    from klcat.coxeter import CoxeterMatrix

    from oracles import LADDER

    built = {}

    def get(name):
        if name not in built:
            rows, cap = LADDER[name]
            table = build_group(CoxeterMatrix.from_rows(rows), cap)
            built[name] = (table, compute_kl(table, table.complete_length))
        return built[name]

    return get
