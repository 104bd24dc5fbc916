"""The benchmark's workloads: inputs from a seed, one batch, and checks.

Each workload has a ``setup`` that builds its inputs and a ``batch`` that
runs every cell once, back to back, in this process (a closed loop with
one client); ``spark_warmup`` readies a started Spark session. A *cell* is one
(graph, order, algorithm) run to convergence; it fails when any check on
it fails, and a failed cell adds nothing to the round counts. Every
batch works on fresh ``LocalGraph`` copies, so adjacency lists cached by
one batch do not speed up the next.

Why these three workloads (see README.md for the per-layer map):

* ``local-reorder`` — Table II, Figs 5/6 and Fig 9 on the local path.
  Reordering is about 60% of it, so GoGraph, partition and Gorder
  changes show here.
* ``seq-sweep`` — the pure-Python Eq. 2 sweep that every runtime column
  of EXPERIMENTS.md comes from; it is about 80% of the work, so a kernel
  change shows here and not in ``local-reorder``.
* ``spark-fig8`` — Fig 8 in Spark wall-clock; Spark's per-round and
  per-block overhead is nearly all of it and absent from the others.
"""
from __future__ import annotations

import gc
from dataclasses import dataclass, field

import numpy as np

from perfbench.probes import Probes
from perfbench.spans import HostSpeed, Tracer
from repro.cachesim.lru import simulate_misses
from repro.cachesim.trace import pagerank_trace
from repro.core.gograph import gograph_order, gograph_positions_spark
from repro.core.metric import metric_m_local, metric_m_spark
from repro.engine.algorithms import ALGOS, make_algo
from repro.engine.reference import gauss_seidel, jacobi, per_round_time
from repro.experiments.cache import CACHE
from repro.experiments.common import TABLE2_ALGOS
from repro.graphs.gen import DATASETS, community_ba_graph, edges_to_spark
from repro.graphs.local import LocalGraph
from repro.reorder.api import METHODS, assert_permutation, compute_order

#: the 7 paper orders plus the Fig 10 unpartitioned GoGraph ablation.
LOCAL_ORDERS = METHODS + ("gograph_unpart",)
SEQ_GRAPHS = ("CP", "LJ")
SEQ_ORDERS = ("default", "rabbit", "gograph")
SEQ_ALGOS = ("pagerank", "php")
SPARK_GRAPH, SPARK_SCALE, SPARK_ALGO, SPARK_BLOCKS = "CP", 0.05, "sssp", 2

#: state tolerances, as in tests/test_reference_engine.py and
#: tests/test_spark_engines.py.
EQ2_VS_EQ1_ATOL_SUM = 1e-4
PY_VS_FAST_ATOL = 1e-12
SPARK_VS_REF_ATOL = 1e-9

#: a jacobi run takes milliseconds, within the host's speed swings, so
#: each Eq. 1 reference counts into sync_s as the best of this many runs
#: (as ``per_round_time`` takes the best of its sweeps).
SYNC_REPEATS = 5
#: ``run_sync_spark`` runs this many times per batch and counts into
#: sync_s as the shortest: one ~7 s run swung by ±15% between processes.
SPARK_SYNC_REPEATS = 2


def seeded_graph(name: str, seed: int, scale: float = 1.0) -> LocalGraph:
    """``dataset_graph(name, scale=scale)`` with the generator seed moved
    by ``1000 * seed``; seed 0 gives exactly the dataset stand-in."""
    p = DATASETS[name]
    return community_ba_graph(
        max(p["m"] + 2, int(p["n"] * scale)),
        p["m"],
        comm_size=max(10, int(p["comm"] * scale**0.5)),
        forward_frac=p["forward"],
        extra_frac=p["extra"],
        seed=p["seed"] + 1000 * seed,
        name=name,
    )


def fresh(g: LocalGraph) -> LocalGraph:
    """Same edges, empty adjacency cache."""
    return LocalGraph(n=g.n, src=g.src, dst=g.dst, w=g.w, name=g.name)


@dataclass
class Batch:
    """What one pass over a workload did; ``e2e()`` gives its metrics."""

    tracer: Tracer
    probes: Probes
    wall: list | None = None  # the span of the whole batch
    # spans summed into gograph_s; sync_s sums the shortest of each group
    gograph: list[list] = field(default_factory=list)
    sync: list[list[list]] = field(default_factory=list)
    cells: int = 0
    failed: int = 0
    rounds_total: int = 0
    gograph_rounds: int = 0
    m_fracs: list[float] = field(default_factory=list)
    misses: int = 0
    accesses: int = 0
    failures: list[str] = field(default_factory=list)
    # (rounds + 1) * |E| summed over the pure-Python Eq. 2 runs
    edge_updates: int = 0

    def cell(self, label: str, problems: list[str], rounds: int, gograph: bool) -> None:
        self.cells += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems)}")
            return
        self.rounds_total += rounds
        if gograph:
            self.gograph_rounds += rounds

    def e2e(self) -> dict[str, float]:
        length = self.tracer.length
        return {
            "wall_s": length(self.wall),
            "gograph_s": sum(map(length, self.gograph)),
            "sync_s": sum(min(map(length, runs)) for runs in self.sync),
            "rounds_total": self.rounds_total,
            "gograph_rounds": self.gograph_rounds,
            # 0 only when every GoGraph order failed its checks
            "gograph_m_frac": float(np.mean(self.m_fracs)) if self.m_fracs else 0.0,
            "gograph_miss_rate": self.misses / self.accesses if self.accesses else 0.0,
        }

    def counts(self) -> dict[str, float]:
        """The exact counts, which must repeat identically per seed."""
        e = self.e2e()
        return {k: e[k] for k in ("rounds_total", "gograph_rounds", "gograph_m_frac", "gograph_miss_rate")}


def _same(a: np.ndarray, b: np.ndarray, atol: float | None) -> bool:
    """States equal within ``atol`` (``None`` = exactly), inf == inf."""
    a, b = np.nan_to_num(a, posinf=1e30), np.nan_to_num(b, posinf=1e30)
    return np.array_equal(a, b) if atol is None else np.allclose(a, b, atol=atol)


def _run_problems(res, ref, algo: str) -> list[str]:
    """Checks of an Eq. 2 run against the Eq. 1 (``jacobi``) run."""
    out = [] if res.converged else ["did not converge"]
    atol = EQ2_VS_EQ1_ATOL_SUM if ALGOS[algo].kind == "sum" else None
    if not _same(res.x, ref.x, atol):
        out.append("Eq. 2 states differ from jacobi")
    return out


def _perm_problems(pos: np.ndarray, n: int) -> list[str]:
    try:
        assert_permutation(pos, n)
    except AssertionError as e:
        return [str(e)]
    return []


def _order(b: Batch, g: LocalGraph, method: str) -> tuple[np.ndarray, list]:
    """Positions for ``method`` inside a ``reorder.<method>`` span."""
    with b.tracer.span(f"reorder.{method}") as rec:
        if method == "gograph_unpart":
            with b.probes.gograph():
                pos = gograph_order(g, partitioned=False)
        elif method == "gograph":
            with b.probes.gograph():
                pos = compute_order(g, method)
        else:
            pos = compute_order(g, method)
    return pos, rec


def _jacobi_refs(b: Batch, g: LocalGraph, algos) -> dict:
    """Eq. 1 runs: the states every Eq. 2 cell is checked against."""
    refs = {}
    for a in algos:
        runs = []
        for _ in range(SYNC_REPEATS):
            with b.tracer.span("engine.reference.jacobi") as rec:
                refs[a] = jacobi(g, make_algo(a))
            runs.append(rec)
        b.sync.append(runs)
    return refs


def _gograph_quality(b: Batch, g: LocalGraph, pos: np.ndarray, m: int) -> None:
    """M(GoGraph)/|E| and the Fig 9 simulated miss rate of ``pos``."""
    b.m_fracs.append(m / g.n_edges)
    with b.tracer.span("cachesim.trace"):
        lines = pagerank_trace(g, pos)
    with b.tracer.span("cachesim.lru"):
        misses, accesses = simulate_misses(lines, **CACHE)
    b.tracer.count("cachesim.accesses", accesses)
    b.misses += misses
    b.accesses += accesses


def _eq1_problems(refs: dict) -> dict[str, list[str]]:
    return {a: ([] if r.converged else ["jacobi did not converge"]) for a, r in refs.items()}


# --------------------------------------------------------------- local-reorder


def local_reorder_setup(seed: int, scale: float) -> dict:
    return {"graphs": [seeded_graph(n, seed, scale) for n in DATASETS]}


def local_reorder_batch(state: dict, b: Batch) -> None:
    """6 stand-ins × 8 orders; PageRank, SSSP, BFS, PHP with the fast Eq. 2
    engine; the Fig 9 cache simulation of the GoGraph order."""
    for g0 in state["graphs"]:
        g = fresh(g0)
        refs = _jacobi_refs(b, g, TABLE2_ALGOS)
        ref_problems = _eq1_problems(refs)
        for method in LOCAL_ORDERS:
            pos, rec = _order(b, g, method)
            perm = _perm_problems(pos, g.n)
            is_gg = method == "gograph"
            if is_gg:
                b.gograph.append(rec)
            for a in TABLE2_ALGOS:
                label = f"{g.name}/{method}/{a}"
                if perm:
                    b.cell(label, perm, 0, is_gg)
                    continue
                with b.tracer.span("engine.reference.gs_fast") as rec:
                    res = gauss_seidel(g, make_algo(a), pos)
                if is_gg:
                    b.gograph.append(rec)
                problems = ref_problems[a] + _run_problems(res, refs[a], a)
                b.cell(label, problems, res.rounds, is_gg)
            if is_gg and not perm:
                _gograph_quality(b, g, pos, metric_m_local(g, pos))


# ------------------------------------------------------------------- seq-sweep


def seq_sweep_setup(seed: int, scale: float) -> dict:
    return {"graphs": [seeded_graph(n, seed, scale) for n in SEQ_GRAPHS]}


def seq_sweep_batch(state: dict, b: Batch) -> None:
    """CP and LJ × {default, rabbit, gograph} × {PageRank, PHP} with the
    pure-Python Eq. 2 sweep, plus ``per_round_time`` for each order and,
    once per graph and algorithm, for sync; the fast engine and
    ``jacobi`` are the checks."""
    tr = b.tracer
    for g0 in state["graphs"]:
        g = fresh(g0)
        refs = _jacobi_refs(b, g, SEQ_ALGOS)
        ref_problems = _eq1_problems(refs)
        for a in SEQ_ALGOS:  # sync sweeps do not depend on the order
            with tr.span("engine.reference.per_round_time"):
                per_round_time(g, make_algo(a), None)
        for method in SEQ_ORDERS:
            pos, rec = _order(b, g, method)
            perm = _perm_problems(pos, g.n)
            is_gg = method == "gograph"
            if is_gg:
                b.gograph.append(rec)
            for a in SEQ_ALGOS:
                label = f"{g.name}/{method}/{a}"
                if perm:
                    b.cell(label, perm, 0, is_gg)
                    continue
                algo = make_algo(a)
                with tr.span("engine.reference.gs_python") as rec:
                    res = gauss_seidel(g, algo, pos, impl="python")
                if is_gg:
                    b.gograph.append(rec)
                b.edge_updates += (res.rounds + 1) * g.n_edges
                with tr.span("engine.reference.per_round_time"):
                    per_round_time(g, algo, pos)
                with tr.span("engine.reference.gs_fast"):
                    fast = gauss_seidel(g, algo, pos)
                problems = ref_problems[a] + _run_problems(res, refs[a], a)
                if fast.rounds != res.rounds or not _same(res.x, fast.x, PY_VS_FAST_ATOL):
                    problems.append("impl='python' and impl='fast' disagree")
                b.cell(label, problems, res.rounds, is_gg)
            if is_gg and not perm:
                _gograph_quality(b, g, pos, metric_m_local(g, pos))


# ------------------------------------------------------------------ spark-fig8


def spark_fig8_setup(seed: int, scale: float, spark) -> dict:
    """The CP@0.05 stand-in with its edge rows permuted by ``seed``.

    The graph itself stays the dataset stand-in: on one 600-vertex graph
    the Fig 8 round counts move by up to a third between generator
    seeds, which would swamp every bound. Permuting the rows changes how
    Spark slices the input into partitions, not the fixpoint or the
    order GoGraph computes (its conquer input is sorted)."""
    g = seeded_graph(SPARK_GRAPH, 0, SPARK_SCALE * scale)
    if seed:
        perm = np.random.default_rng(seed).permutation(g.n_edges)
        g = LocalGraph(n=g.n, src=g.src[perm], dst=g.dst[perm], w=g.w[perm], name=g.name)
    return {"graphs": [g], "spark": spark}


def spark_warmup(state: dict) -> None:
    """Untimed warm-up: GoGraph on Spark (starts the Python workers and
    the ``applyInPandas`` path), M and a whole sync run.

    Spark's JVM keeps getting faster for tens of seconds of work, as the
    optimizer and join code it runs per query get compiled; after one
    sync round as the warm-up, the timed sync run took anywhere from 6.1
    to 8.8 s."""
    from repro.engine.spark_sync import run_sync_spark

    spark, g = state["spark"], state["graphs"][0]
    edf = edges_to_spark(spark, g)
    pos_df = gograph_positions_spark(spark, edf, g.n)
    metric_m_spark(edf, pos_df)
    pos_df.toPandas()
    run_sync_spark(spark, fresh(g), SPARK_ALGO)


def spark_fig8_batch(state: dict, b: Batch) -> None:
    """GoGraph on Spark, then Sync+Default (twice) and Async+GoGraph
    (SSSP), each checked against the reference engine.

    Async+Default (8 rounds, about 40% of the Spark pass) is left out to
    keep the benchmark's runs within its time budget; its round count,
    Fig 8's middle bar, is exact on the reference engine already."""
    from repro.engine.spark_async import run_async_spark
    from repro.engine.spark_sync import run_sync_spark

    spark, g = state["spark"], fresh(state["graphs"][0])
    tr, pr = b.tracer, b.probes
    with tr.span("reorder.gograph") as rec:
        edf = edges_to_spark(spark, g)
        with pr.gograph("spark_gograph.", local=False), tr.span("core.gograph.spark"):
            pos_df = gograph_positions_spark(spark, edf, g.n)
        pos = pos_df.toPandas().sort_values("vid")["pos"].to_numpy()
    b.gograph.append(rec)
    perm = _perm_problems(pos, g.n)
    m = metric_m_spark(edf, pos_df)
    with tr.span("check.gograph_local"), pr.gograph():
        local_pos = gograph_order(g)
    if not np.array_equal(pos, local_pos):
        perm.append("Spark GoGraph positions differ from gograph_order")
    elif metric_m_local(g, pos) != m:
        perm.append("metric_m_spark differs from metric_m_local")
    if not perm:
        _gograph_quality(b, g, pos, m)
    algo = make_algo(SPARK_ALGO)

    with tr.span("engine.reference.jacobi"):
        ref = jacobi(g, algo)
    runs, problems = [], []
    for _ in range(SPARK_SYNC_REPEATS):
        res, rec = pr.spark_call(
            spark, "sync", "engine.spark_sync", lambda: run_sync_spark(spark, g, SPARK_ALGO)
        )
        runs.append(rec)
        problems += [p for p in _spark_problems(res, ref) if p not in problems]
    b.sync.append(runs)
    b.cell("sync/default", problems, res.rounds, False)

    if perm:
        b.cell("async/gograph", perm, 0, True)
        return
    with tr.span("engine.reference.gs_fast"):
        ref = gauss_seidel(g, algo, pos)
    res, rec = pr.spark_call(
        spark,
        "async",
        "engine.spark_async",
        lambda: run_async_spark(spark, g, SPARK_ALGO, pos, n_blocks=SPARK_BLOCKS),
    )
    b.gograph.append(rec)
    b.cell("async/gograph", _spark_problems(res, ref), res.rounds, True)


def _spark_problems(res, ref) -> list[str]:
    out = [] if res.converged and ref.converged else ["did not converge"]
    if res.rounds != ref.rounds:
        out.append(f"{res.rounds} rounds, reference engine {ref.rounds}")
    if not _same(res.x, ref.x, SPARK_VS_REF_ATOL):
        out.append("states differ from the reference engine")
    return out


def new_batch(on: bool, speed: HostSpeed) -> Batch:
    gc.collect()
    tr = Tracer(speed)
    return Batch(tr, Probes(tr, on))


WORKLOADS = {
    "local-reorder": (local_reorder_setup, local_reorder_batch),
    "seq-sweep": (seq_sweep_setup, seq_sweep_batch),
    "spark-fig8": (spark_fig8_setup, spark_fig8_batch),
}
