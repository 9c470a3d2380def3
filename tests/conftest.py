import pytest

from ppmod.fields import GF
from ppmod.algebra import kronecker_algebra, truncated_dvr

F2 = GF(2)


@pytest.fixture(scope="session")
def dvr2():
    return truncated_dvr(2, F2)


@pytest.fixture(scope="session")
def dvr3():
    return truncated_dvr(3, F2)


@pytest.fixture(scope="session")
def kron():
    return kronecker_algebra(F2)


@pytest.fixture
def failed_square(monkeypatch):
    """square_failures reports the first square it checks as failing to
    commute."""
    from ppmod import realize
    inner = realize.square_failures
    calls = []

    def failing(*maps):
        failed = inner(*maps)
        calls.append(failed)
        return failed + ["commutes"] if len(calls) == 1 else failed

    monkeypatch.setattr(realize, "square_failures", failing)


@pytest.fixture
def solved_homs(monkeypatch):
    """One entry per Hom system that hom_space solves: the source and
    target action matrices, whose identities name the module pair.  The
    entries keep the matrices alive, so no id is reused."""
    import ppmod.modules
    solved = []
    inner = ppmod.modules.intertwiners

    def counted(src, tgt, *args):
        solved.append((tuple(src), tuple(tgt)))
        return inner(src, tgt, *args)

    monkeypatch.setattr(ppmod.modules, "intertwiners", counted)
    return solved

