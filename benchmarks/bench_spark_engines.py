"""Benchmark: the Spark engines themselves (one representative cell).

Times Eq. 1 (sync) vs Eq. 2 (async, GoGraph order) BFS on the IC
stand-in — the full sweep matrices run on the fast reference engine
(DESIGN.md §4); this target proves the distributed path end-to-end.
Each line prints seconds per round next to the rounds (the final
detection round counts as a round there), so Fig 8's wall-clock
comparison of the two engines reads off the output.
"""
import pytest

from repro.core.gograph import gograph_order
from repro.engine.spark_async import run_async_spark
from repro.engine.spark_sync import run_sync_spark
from repro.graphs.gen import dataset_graph


@pytest.fixture(scope="module")
def ic():
    return dataset_graph("IC", scale=0.25)


def test_bench_spark_sync_bfs(benchmark, spark, ic):
    r = benchmark.pedantic(
        lambda: run_sync_spark(spark, ic, "bfs"), rounds=1, iterations=1
    )
    print(
        f"\n[Spark sync BFS] rounds={r.rounds} "
        f"s/round={r.elapsed_s / (r.rounds + 1):.2f} converged={r.converged}"
    )
    assert r.converged


def test_bench_spark_async_bfs(benchmark, spark, ic):
    pos = gograph_order(ic)
    r = benchmark.pedantic(
        lambda: run_async_spark(spark, ic, "bfs", pos, n_blocks=4),
        rounds=1,
        iterations=1,
    )
    print(
        f"\n[Spark async+GoGraph BFS] rounds={r.rounds} "
        f"s/round={r.elapsed_s / (r.rounds + 1):.2f} converged={r.converged}"
    )
    assert r.converged
