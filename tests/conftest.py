import pytest

from qbern.carlitz import table_for
from qbern.qfield import QContext


@pytest.fixture(scope="session")
def sym_ctx():
    return QContext.symbolic()


@pytest.fixture(scope="session")
def sym_table(sym_ctx):
    return table_for(sym_ctx)


@pytest.fixture(scope="session")
def padic_ctx3():
    return QContext.padic(3, 24, "1+p")


@pytest.fixture(scope="session")
def padic_ctx5():
    return QContext.padic(5, 24, "1+p")


@pytest.fixture(scope="session")
def padic_ctx7():
    return QContext.padic(7, 24, "1+p")


@pytest.fixture(scope="session")
def padic_contexts(padic_ctx3, padic_ctx5, padic_ctx7):
    return {3: padic_ctx3, 5: padic_ctx5, 7: padic_ctx7}


@pytest.fixture(scope="session")
def power_contexts():
    """The padic contexts on which the scalar paths that take powers by
    ``**`` are held to the running products they replaced: (p, K, q) =
    (3, 24, 1+p), (5, 24, 26), (7, 8, 8) and (3, 5, 1/4), each also at 1/q."""
    from qbern.qfield import invert_q

    bases = [QContext.padic(p, k, q) for p, k, q in
             ((3, 24, "1+p"), (5, 24, "26"), (7, 8, "8"), (3, 5, "1/4"))]
    return [ctx for base in bases for ctx in (base, invert_q(base))]
