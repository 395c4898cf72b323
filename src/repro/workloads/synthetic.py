"""Parametric synthetic loops for the ablation and baseline experiments.

* :func:`build_dependence_injected` — a loop whose fraction of genuinely
  dependent iterations is a knob; drives the failure-cost experiment
  (speculation loses ≈ the attempt overhead when the test fails).
* :func:`build_hotspot_reduction` — reduction traffic concentrated on few
  elements, the situation motivating Chen/Yew/Torrellas [13].
* :func:`build_wavefront_chain` — a partially parallel loop with a known
  minimum wavefront depth, used to validate and time the related-work
  schedulers of Table II.
* :func:`build_conditional_dead_reads` — reads whose values are used only
  under a rare condition; separates the value-based LPD marking from the
  reference-based PD marking (ablation A-PD).
* :func:`build_partial_parallel` — a serial dependence band inside an
  otherwise parallel loop; the strip-mined pipeline's motivating case
  (all-or-nothing speculation fails the whole loop, strips only lose the
  band).
* :func:`build_synthdoacross` — every iteration depends on the one
  exactly ``distance`` back; fails the LRPD test everywhere but
  pipelines perfectly, the DOACROSS recovery tier's motivating case.
* :func:`build_reduction_copy` — a reduction through a temporary whose
  running value is also copied into a second scalar: a valid reduction
  the whole-block engine rejects, so its runs exercise the fallback to
  the compiled engine.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import PaperExpectation, Workload


def build_dependence_injected(
    n: int = 400, dep_fraction: float = 0.0, seed: int = 0
) -> Workload:
    """A gather/scatter loop with an injected fraction of flow dependences.

    Each iteration writes ``a(wloc(i))`` and reads ``a(rloc(i))``.  With
    ``dep_fraction == 0`` the read locations avoid every write location
    (test passes, fully parallel); a positive fraction points that many
    reads at *other iterations'* write locations (test fails).
    """
    if not 0.0 <= dep_fraction <= 1.0:
        raise WorkloadError("dep_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    size = 2 * n
    wloc = rng.permutation(n) + 1            # writes land in [1, n]
    rloc = rng.integers(n + 1, size + 1, n)  # reads land in (n, 2n]
    num_deps = int(round(dep_fraction * n))
    if num_deps:
        # Inject *flow* dependences: the victim reads an element written
        # by a strictly earlier iteration.  (A later writer would only be
        # an anti dependence, which copy-in privatization handles.)
        victims = rng.choice(np.arange(1, n), size=min(num_deps, n - 1), replace=False)
        for v in victims:
            earlier = int(rng.integers(0, v))
            rloc[v] = wloc[earlier]
    source = f"""
program dep_injected
  integer n, i
  real a({size}), src({n})
  integer wloc({n}), rloc({n})
  real t
  do i = 1, n
    t = a(rloc(i)) * 0.5 + src(i)
    a(wloc(i)) = t * t + 1.0
  end do
end
"""
    return Workload(
        name=f"SYNTH_DEPS_{int(dep_fraction * 100):03d}",
        source=source,
        inputs={
            "n": n,
            "wloc": wloc,
            "rloc": rloc,
            "a": rng.normal(size=size),
            "src": rng.normal(size=n),
        },
        expectation=PaperExpectation(
            transforms=(),
            inspector_extractable=True,
            test_passes=dep_fraction == 0.0,
        ),
        description=f"gather/scatter with {dep_fraction:.0%} injected dependences",
        check_arrays=("a",),
    )


def build_hotspot_reduction(
    n: int = 400, hot_fraction: float = 0.8, num_hot: int = 4, seed: int = 0
) -> Workload:
    """A sum reduction whose traffic concentrates on ``num_hot`` elements."""
    if not 0.0 <= hot_fraction <= 1.0:
        raise WorkloadError("hot_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    size = max(num_hot + 1, n // 4)
    target = np.where(
        rng.random(n) < hot_fraction,
        rng.integers(1, num_hot + 1, n),
        rng.integers(num_hot + 1, size + 1, n),
    )
    source = f"""
program hotspot
  integer n, i
  real acc({size}), val({n})
  integer target({n})
  do i = 1, n
    acc(target(i)) = acc(target(i)) + val(i) * val(i)
  end do
end
"""
    return Workload(
        name=f"SYNTH_HOTSPOT_{int(hot_fraction * 100):03d}",
        source=source,
        inputs={"n": n, "target": target, "val": rng.normal(size=n)},
        expectation=PaperExpectation(
            transforms=("reduction",), inspector_extractable=True, test_passes=True
        ),
        description=f"{hot_fraction:.0%} of reduction traffic on {num_hot} elements",
        check_arrays=("acc",),
    )


def build_wavefront_chain(
    n: int = 240,
    num_chains: int = 8,
    *,
    scramble: bool = False,
    shared_read: bool = False,
    seed: int = 0,
) -> Workload:
    """A partially parallel loop with known minimum schedule depth.

    Iterations form ``num_chains`` disjoint flow-dependence chains over
    elements of ``a`` (iteration ``i`` reads the element written by its
    chain predecessor), so the minimal wavefront schedule has exactly
    ``ceil(n / num_chains)`` stages.  The LRPD test fails on it (by
    design — it is not a doall); the Table II baselines schedule it.

    ``scramble`` spreads each chain's iterations randomly over the
    iteration space (chain order still increasing) — this is what makes
    contiguous-block scheduling (Polychronopoulos) and sectioned
    inspectors (Leung/Zahorjan) visibly suboptimal.  ``shared_read`` adds
    one read-only hot element read by every iteration, which serializes
    the methods that treat concurrent reads as conflicts (Zhu/Yew,
    Chen/Yew/Torrellas).
    """
    if num_chains < 1 or num_chains > n:
        raise WorkloadError("need 1 <= num_chains <= n")
    rng = np.random.default_rng(seed)
    size = 2 * n + 1
    hot = size  # last element: read-only hot spot
    wloc = np.zeros(n, dtype=np.int64)
    rloc = np.zeros(n, dtype=np.int64)
    cells = iter(rng.permutation(2 * n) + 1)

    if scramble:
        perm = rng.permutation(n)
        chains = [np.sort(perm[c::num_chains]) for c in range(num_chains)]
    else:
        chains = [np.arange(c, n, num_chains) for c in range(num_chains)]

    for chain in chains:
        prev_cell = None
        for it in chain:
            cell = next(cells)
            rloc[it] = prev_cell if prev_cell is not None else next(cells)
            wloc[it] = cell
            prev_cell = cell

    if shared_read:
        body = "    a(wloc(i)) = a(rloc(i)) * 0.9 + src(i) + a(hot) * 0.001"
        extra_decl = "  integer hot"
    else:
        body = "    a(wloc(i)) = a(rloc(i)) * 0.9 + src(i)"
        extra_decl = ""
    source = f"""
program wavefront
  integer n, i
{extra_decl}
  real a({size}), src({n})
  integer wloc({n}), rloc({n})
  do i = 1, n
{body}
  end do
end
"""
    inputs = {
        "n": n,
        "wloc": wloc,
        "rloc": rloc,
        "a": rng.normal(size=size),
        "src": rng.normal(size=n),
    }
    if shared_read:
        inputs["hot"] = hot
    return Workload(
        name=f"SYNTH_WAVEFRONT_{num_chains}",
        source=source,
        inputs=inputs,
        expectation=PaperExpectation(
            transforms=(), inspector_extractable=True, test_passes=False
        ),
        description=f"{num_chains} flow-dependence chains (partially parallel)",
        check_arrays=("a",),
    )


def build_blocked_chain(n: int = 240, seed: int = 0) -> Workload:
    """Pairwise forward dependences: iteration ``2k+1`` reads what ``2k``
    wrote.

    Fails the iteration-wise test (a genuine cross-iteration flow) but
    passes the *processor-wise* test whenever block scheduling keeps each
    pair on one processor (even block sizes) — the Appendix A.1 ablation.
    ``n`` should be chosen so the interesting processor counts divide it
    evenly.
    """
    if n % 2:
        raise WorkloadError("build_blocked_chain needs an even n")
    rng = np.random.default_rng(seed)
    cells = rng.permutation(2 * n) + 1
    wloc = np.zeros(n, dtype=np.int64)
    rloc = np.zeros(n, dtype=np.int64)
    for k in range(n // 2):
        first, second = 2 * k, 2 * k + 1
        wloc[first] = cells[2 * k]
        rloc[first] = cells[n + 2 * k]      # fresh, never-written cell
        rloc[second] = wloc[first]           # reads its pair's write
        wloc[second] = cells[2 * k + 1]
    source = f"""
program blocked_chain
  integer n, i
  real a({2 * n}), src({n})
  integer wloc({n}), rloc({n})
  do i = 1, n
    a(wloc(i)) = a(rloc(i)) * 0.5 + src(i)
  end do
end
"""
    return Workload(
        name="SYNTH_BLOCKED_CHAIN",
        source=source,
        inputs={
            "n": n,
            "wloc": wloc,
            "rloc": rloc,
            "a": rng.normal(size=2 * n),
            "src": rng.normal(size=n),
        },
        expectation=PaperExpectation(
            transforms=(), inspector_extractable=True, test_passes=False
        ),
        description="pairwise forward dependences (processor-wise ablation)",
        check_arrays=("a",),
    )


def build_conditional_dead_reads(
    n: int = 300, live_fraction: float = 0.0, seed: int = 0
) -> Workload:
    """Reads whose values matter only when a rare condition holds.

    Every iteration reads ``a(rloc(i))`` into a private scalar but stores
    it to shared state only when ``gate(i)`` is set; the read locations
    intersect the write locations.  Reference-based (PD) marking marks
    every read and fails; value-based (LPD) marking marks only the gated
    uses, so with ``live_fraction == 0`` the loop passes — the paper's
    PD-vs-LPD distinction in its purest form.
    """
    if not 0.0 <= live_fraction <= 1.0:
        raise WorkloadError("live_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    size = n
    wloc = rng.permutation(n) + 1
    rloc = np.roll(wloc, 1)  # reads hit other iterations' write locations
    gate = (rng.random(n) < live_fraction).astype(np.int64)
    source = f"""
program dead_reads
  integer n, i
  real a({size}), out({n}), src({n})
  integer wloc({n}), rloc({n}), gate({n})
  real t
  do i = 1, n
    t = a(rloc(i)) * 2.0
    a(wloc(i)) = src(i) * src(i)
    if (gate(i) == 1) then
      out(i) = t
    end if
  end do
end
"""
    return Workload(
        name=f"SYNTH_DEADREADS_{int(live_fraction * 100):03d}",
        source=source,
        inputs={
            "n": n,
            "wloc": wloc,
            "rloc": rloc,
            "gate": gate,
            "a": rng.normal(size=size),
            "src": rng.normal(size=n),
        },
        expectation=PaperExpectation(
            transforms=(),
            inspector_extractable=True,
            test_passes=live_fraction == 0.0,
        ),
        description=f"conditionally used reads, {live_fraction:.0%} live",
        check_arrays=("a", "out"),
    )


def build_partial_parallel(
    n: int = 400,
    *,
    band_start: int | None = None,
    band_length: int = 24,
    work: int = 60,
    seed: int = 0,
) -> Workload:
    """A *partially parallel* loop: one serial dependence band in an
    otherwise fully parallel gather/scatter iteration space.

    Iterations in ``[band_start, band_start + band_length)`` form a
    serial flow chain — each reads the element the previous one wrote —
    while every other iteration writes and reads disjoint locations.
    The all-or-nothing speculative protocol fails the whole loop on the
    band and falls back to serial (speedup ≤ 1); the strip-mined
    pipeline only rolls back the strip(s) containing the band and keeps
    the parallel regions' speedup.  ``work`` fattens each iteration with
    an inner busy loop so per-strip overheads (checkpoint, barrier,
    analysis) stay small relative to the body, as in the paper's
    coarse-grained loops.
    """
    if band_length < 2 or band_length > n:
        raise WorkloadError("need 2 <= band_length <= n")
    if band_start is None:
        band_start = (n - band_length) // 2
    if not (0 <= band_start <= n - band_length):
        raise WorkloadError("band must fit inside the iteration space")
    rng = np.random.default_rng(seed)
    size = 2 * n
    wloc = rng.permutation(n) + 1            # writes land in [1, n]
    rloc = rng.integers(n + 1, size + 1, n)  # reads land in (n, 2n]
    # The band: iteration v (0-based) reads what iteration v-1 wrote.
    for v in range(band_start + 1, band_start + band_length):
        rloc[v] = wloc[v - 1]
    source = f"""
program partial_parallel
  integer n, i, k, work
  real a({size}), src({n})
  integer wloc({n}), rloc({n})
  real t
  do i = 1, n
    t = src(i)
    do k = 1, work
      t = t * 0.999 + 0.001
    end do
    t = t + a(rloc(i)) * 0.5
    a(wloc(i)) = t * t + 1.0
  end do
end
"""
    return Workload(
        name=f"SYNTH_PARTIAL_{band_length:03d}of{n}",
        source=source,
        inputs={
            "n": n,
            "work": work,
            "wloc": wloc,
            "rloc": rloc,
            "a": rng.normal(size=size),
            "src": rng.normal(size=n),
        },
        expectation=PaperExpectation(
            transforms=(),
            inspector_extractable=True,
            test_passes=False,
            notes="partially parallel: fails whole-loop, profits stripped",
        ),
        description=(
            f"gather/scatter with a {band_length}-iteration serial band "
            f"at {band_start} (work={work})"
        ),
        check_arrays=("a",),
    )


def build_synthdoacross(
    n: int = 400,
    *,
    distance: int = 32,
    work: int = 60,
    seed: int = 0,
) -> Workload:
    """A uniform-distance DOACROSS loop: iteration ``v`` reads what
    iteration ``v - distance`` wrote.

    Every write location is distinct (one write per element) and every
    iteration from ``distance`` on reads its predecessor-at-distance's
    write location, so the loop carries a flow dependence on *every*
    chain — the LRPD test fails it outright, whole-loop and in any strip
    wider than ``distance``.  But the minimum (indeed the only)
    cross-iteration distance is exactly ``distance``: the shadow stamps
    measure it, and the recovery tier's chunked post/wait pipeline
    overlaps up to ``distance`` iterations at a time.  The first
    ``distance`` iterations read fresh, never-written cells in
    ``(n, 2n]``.  ``work`` fattens the body so sync overheads stay small
    relative to the iterations, as in the paper's coarse-grained loops.
    """
    if distance < 2 or distance >= n:
        raise WorkloadError("need 2 <= distance < n")
    rng = np.random.default_rng(seed)
    size = 2 * n
    wloc = rng.permutation(n) + 1            # writes land in [1, n]
    rloc = rng.integers(n + 1, size + 1, n)  # reads land in (n, 2n]
    for v in range(distance, n):
        rloc[v] = wloc[v - distance]
    source = f"""
program synthdoacross
  integer n, i, k, work
  real a({size}), src({n})
  integer wloc({n}), rloc({n})
  real t
  do i = 1, n
    t = src(i)
    do k = 1, work
      t = t * 0.999 + 0.001
    end do
    t = t + a(rloc(i)) * 0.5
    a(wloc(i)) = t * t + 1.0
  end do
end
"""
    return Workload(
        name=f"SYNTH_DOACROSS_{distance:03d}",
        source=source,
        inputs={
            "n": n,
            "work": work,
            "wloc": wloc,
            "rloc": rloc,
            "a": rng.normal(size=size),
            "src": rng.normal(size=n),
        },
        expectation=PaperExpectation(
            transforms=(),
            inspector_extractable=True,
            test_passes=False,
            notes=(
                "uniform-distance DOACROSS: fails the LRPD test, "
                "pipelines at the measured distance"
            ),
        ),
        description=(
            f"uniform flow dependence at distance {distance} "
            f"(work={work})"
        ),
        check_arrays=("a",),
    )


def build_reduction_copy(n: int = 80, seed: int = 0) -> Workload:
    """SPICE's reduction through a temporary, plus a copy of the running
    value into a second private scalar that nothing reads afterwards.

    Forward substitution still proves ``y`` a ``+`` reduction (the copy
    is dead, so it is never expanded), but the vectorized classifier
    accepts a temporary only when the store is its sole reader: this
    loop is rejected with "reduction-array load outside its own update
    statement" and runs on the compiled engine.
    """
    rng = np.random.default_rng(seed)
    m = max(2, n // 4)
    source = f"""
program reduction_copy
  integer n, i, k
  real y({m}), v({n}), t, u
  integer idx({n})
  do i = 1, n
    k = idx(i)
    t = y(k) + v(i)
    u = t * 2.0
    y(k) = t
  end do
end
"""
    return Workload(
        name="SYNTH_REDUCTION_COPY",
        source=source,
        inputs={
            "n": n,
            "idx": rng.integers(1, m + 1, n),
            "v": rng.normal(size=n),
            "y": rng.normal(scale=0.1, size=m),
        },
        expectation=PaperExpectation(
            transforms=("reduction",), inspector_extractable=True, test_passes=True
        ),
        description="reduction through a temporary whose running value is copied",
        check_arrays=("y",),
    )
