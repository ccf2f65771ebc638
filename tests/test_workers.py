import os

import numpy as np
import pytest

from kronlift import _workers


@pytest.mark.parametrize("n,forked", [(1, 0), (2, 1), (3, 2), (8, 4)])
def test_run_forked_forks_at_most_one_child_per_free_worker(monkeypatch,
                                                             workers, n,
                                                             forked):
    parent = os.getpid()
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    workers(n)
    out = _workers.shared_array(5, float)
    ran_here = []

    def task(j):
        out[j] = j + 1
        if os.getpid() == parent:
            ran_here.append(j)

    assert _workers.run_forked([lambda j=j: task(j) for j in range(5)]) is None
    assert len(forks) == forked
    assert ran_here == [0, *range(forked + 1, 5)]  # the rest here, in order
    np.testing.assert_array_equal(out, [1, 2, 3, 4, 5])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
