import pytest

from prooflab import lindenbaum_extend
from prooflab.spec import canonicalize, parse


def classes(*texts):
    return [canonicalize(parse(t)) for t in texts]


@pytest.fixture
def sp_p():
    """Extension of {p} with default bit 0: witness p=1, everything else 0."""
    return lindenbaum_extend(frozenset(classes("p")), 0)


@pytest.fixture
def sp_pq():
    """Extension of {p, q}: witness p=1 q=1."""
    return lindenbaum_extend(frozenset(classes("p", "q")), 0)


@pytest.fixture
def sp_empty():
    """Extension of the empty base: the all-zero witness."""
    return lindenbaum_extend(frozenset(), 0)
