"""The CLI keeps its bytes: the first ops of each benchmark workload
hash to the digests recorded in ``_golden.DIGESTS``."""

import pytest

from _golden import DIGESTS, WORKLOADS, digest


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_output_keeps_its_digest(workload):
    key = (workload, 1, 200)
    assert digest(*key) == DIGESTS[key], (
        f"{workload} output changed; compare `python tests/_golden.py {workload} 1 200 --each` "
        "before and after the change to find the first op that differs"
    )
