"""Parity of the worker-sharded path against the compiled engine.

``engine="vectorized"`` with ``workers=N`` is the only path that runs a
doall across real workers (:mod:`repro.runtime.parallel_backend`).  On
the paper loops it must be observationally identical to the compiled
single-process engine; runs cut short by eager detection abort at a
worker-local point, so there only the verdict and the post-protocol
environment are comparable.  The shared machinery (shard executor,
merge, pool) is tested in :mod:`tests.runtime.test_thread_backend`.
"""

from __future__ import annotations

import pytest

from repro.workloads import PAPER_LOOPS
from repro.workloads.synthetic import build_dependence_injected

from tests.runtime.test_thread_backend import (
    assert_env_equal,
    assert_full_parity,
    sharded_outcome,
    spec_outcome,
)


@pytest.mark.parametrize(
    "name", ["BDNA_ACTFOR_do240", "MDG_INTERF_do1000", "OCEAN_FTRVMT_do109"]
)
def test_paper_loop_parity(name):
    workload = PAPER_LOOPS[name]()
    compiled, env_c = spec_outcome(workload, "compiled")
    sharded, env_s = sharded_outcome(workload, 3)
    assert compiled.result.passed and sharded.result.passed
    assert_full_parity(compiled, sharded, env_c, env_s)


def test_eager_abort_verdict_and_env_parity():
    """Eager aborts stop at a worker-local point, so the comparable
    surface is the verdict (always a fail, by mark monotonicity under
    the merge) and the rolled-back + serially recomputed memory."""
    workload = build_dependence_injected(n=80, dep_fraction=0.25)
    compiled, env_c = spec_outcome(workload, "compiled", eager=True)
    sharded, env_s = sharded_outcome(workload, 2, eager=True)
    assert compiled.run.aborted and sharded.run.aborted
    assert not compiled.result.passed and not sharded.result.passed
    assert_env_equal(env_c, env_s)
