import pytest

from searchorder.inventory import connected_graphs


def _connected_graphs_upto(n):
    return [g for k in range(1, n + 1) for g in connected_graphs(k)]


@pytest.fixture(scope="session")
def graphs_upto_5():
    return _connected_graphs_upto(5)


@pytest.fixture(scope="session")
def graphs_upto_6():
    return _connected_graphs_upto(6)


@pytest.fixture(scope="session")
def graphs_upto_7():
    return _connected_graphs_upto(7)
