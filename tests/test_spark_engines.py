"""Parity tests: Spark engines vs the local reference engine.

Graphs are tiny and fast-converging algorithms are used for full-run
parity; PageRank (≈100 rounds) is compared with capped rounds so the
suite stays fast — per-round deltas and states must match exactly
either way.
"""
import numpy as np
import pytest

from repro.engine.algorithms import make_algo
from repro.engine.reference import gauss_seidel, jacobi
from repro.engine.spark_async import run_async_spark
from repro.engine.spark_sync import run_sync_spark
from repro.graphs.gen import ba_graph
from repro.graphs.local import LocalGraph
from repro.reorder.api import compute_order


@pytest.fixture(scope="module")
def tiny():
    return ba_graph(100, 3, forward_frac=0.3, extra_frac=0.2, seed=21)


def _close(a, b):
    return np.allclose(
        np.nan_to_num(a, posinf=1e30), np.nan_to_num(b, posinf=1e30), atol=1e-9
    )


@pytest.mark.parametrize("algo", ["sssp", "bfs", "cc", "sswp"])
def test_sync_full_convergence_parity(spark, tiny, algo):
    ref = jacobi(tiny, make_algo(algo))
    got = run_sync_spark(spark, tiny, algo)
    assert got.rounds == ref.rounds
    assert got.converged
    assert _close(got.x, ref.x)


@pytest.mark.parametrize("algo", ["pagerank", "php"])
def test_sync_capped_rounds_parity(spark, tiny, algo):
    ref = jacobi(tiny, make_algo(algo), max_rounds=6)
    got = run_sync_spark(spark, tiny, algo, max_rounds=6)
    assert got.rounds == ref.rounds
    assert np.allclose(got.deltas, ref.deltas)
    assert _close(got.x, ref.x)


@pytest.mark.parametrize("method", ["default", "gograph"])
def test_async_full_convergence_parity_sssp(spark, tiny, method):
    pos = compute_order(tiny, method)
    ref = gauss_seidel(tiny, make_algo("sssp"), pos)
    got = run_async_spark(spark, tiny, "sssp", pos, n_blocks=3)
    assert got.rounds == ref.rounds
    assert _close(got.x, ref.x)


def test_async_capped_rounds_parity_pagerank(spark, tiny):
    pos = compute_order(tiny, "gograph")
    ref = gauss_seidel(tiny, make_algo("pagerank"), pos, max_rounds=4)
    got = run_async_spark(spark, tiny, "pagerank", pos, n_blocks=3, max_rounds=4)
    assert got.rounds == ref.rounds
    assert np.allclose(got.deltas, ref.deltas)
    assert _close(got.x, ref.x)


def test_async_block_count_invariance(spark, tiny):
    """Eq. 2 semantics do not depend on the dataflow block granularity."""
    pos = compute_order(tiny, "gograph")
    r1 = run_async_spark(spark, tiny, "bfs", pos, n_blocks=1)
    r2 = run_async_spark(spark, tiny, "bfs", pos, n_blocks=4)
    assert r1.rounds == r2.rounds
    assert _close(r1.x, r2.x)


def test_async_beats_sync_rounds_on_spark(spark, tiny):
    """The paper's core observation, reproduced on the Spark engines."""
    pos = compute_order(tiny, "gograph")
    sync = run_sync_spark(spark, tiny, "bfs")
    asy = run_async_spark(spark, tiny, "bfs", pos, n_blocks=2)
    assert asy.rounds <= sync.rounds


@pytest.fixture(scope="module")
def with_unreachable():
    """Seven vertices; from source 0, vertices 4–6 are unreachable.

    The cycle 4 ⇄ 5 feeds edge 5 → 3 into the reachable part, so inf
    source states reach the kernel, and 6 is isolated."""
    edges = [
        (0, 1, 4.0), (0, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0),
        (4, 5, 1.0), (5, 4, 1.0), (5, 3, 1.0),
    ]
    src, dst, w = (np.array(c) for c in zip(*edges))
    return LocalGraph(n=7, src=src, dst=dst, w=w, name="unreachable")


@pytest.mark.parametrize("algo", ["bfs", "sssp"])
def test_async_parity_with_unreachable_vertices(spark, with_unreachable, algo):
    """The per-vertex delta computed in the kernel treats inf → inf as no
    change and inf → finite as an inf delta, as the reference engine does.
    ``n_blocks = g.n`` gives every vertex a block of its own."""
    g = with_unreachable
    # 1 sweeps before 2 and the source last: SSSP first reaches 1 by
    # 0 → 1 (4), then by 0 → 2 → 1 (2), a finite delta in round 2
    pos = np.array([6, 0, 5, 1, 2, 3, 4])
    ref = gauss_seidel(g, make_algo(algo), pos, source=0)
    assert np.isinf(ref.x).any() and np.isinf(ref.deltas).any()
    for n_blocks in (1, 2, g.n):
        got = run_async_spark(spark, g, algo, pos, n_blocks=n_blocks, source=0)
        assert got.converged
        assert got.rounds == ref.rounds
        assert len(got.deltas) == len(ref.deltas)
        assert np.allclose(got.deltas, ref.deltas)
        assert _close(got.x, ref.x)


# Both checks run before any Spark work, so no session is passed.
def test_async_rejects_bad_n_blocks(tiny):
    pos = compute_order(tiny, "default")
    for n_blocks in (0, -1):
        with pytest.raises(ValueError, match="n_blocks"):
            run_async_spark(None, tiny, "sssp", pos, n_blocks=n_blocks)


@pytest.mark.parametrize(
    "bad", [np.zeros(100), np.arange(99), np.arange(1, 101)], ids=["zeros", "short", "shifted"]
)
def test_async_rejects_positions_not_a_permutation(tiny, bad):
    with pytest.raises(AssertionError, match="permutation"):
        run_async_spark(None, tiny, "sssp", bad)


def test_async_jobs_per_round(spark, tiny):
    """Regression guard on the dataflow shape: one join per block, the
    round's delta reduced from the checkpointed states. The count is
    taken over the whole call, set-up included, and divided by the swept
    rounds (the uncounted detection round too). Measured: 11.0 here;
    10.6 per round on Fig 8's CP@0.05 SSSP. The earlier dataflow (three
    joins per block and a separate delta join) measured 28."""
    pos = compute_order(tiny, "gograph")
    sc = spark.sparkContext
    sc.setJobGroup("test-async-jobs", "run_async_spark jobs per round")
    try:
        got = run_async_spark(spark, tiny, "sssp", pos, n_blocks=2)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    jobs = len(sc.statusTracker().getJobIdsForGroup("test-async-jobs"))
    assert got.converged
    assert jobs / (got.rounds + 1) <= 12
