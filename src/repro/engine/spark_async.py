"""Asynchronous (Eq. 2 / Gauss–Seidel) iterative engine on Spark.

Positions are cut into ``n_blocks`` contiguous blocks. A round sweeps
blocks in ascending position order; each block's update is a single
``applyInPandas`` group that runs the *sequential* in-position sweep
kernel (:func:`repro.engine.kernels.gs_sweep`) over the block's
in-edges joined with the *current* global states:

* in-neighbors in earlier blocks were already rewritten this round →
  their joined state is the this-round value;
* in-neighbors later in this block's own sweep are handled by the
  kernel's ``updated`` dict;
* in-neighbors in later blocks still hold last round's value.

That is exactly Eq. 2 for **any** ``n_blocks`` — block count only sets
the dataflow granularity (tests assert block-count invariance and
parity with the local reference engine, including round counts).

Dataflow. The state frame carries every per-vertex column the kernel
needs: ``vid, blk, pos, base, fixed, val, d``. The edges are split by
the block of their destination once, at set-up. A block then costs one
shuffle join, on edge sources: its edge rows pick up their source's
current ``val``. The block's own vertex rows are
``states.where(blk == b)``; they still hold the round-start value,
because only block ``b`` writes them. One ``applyInPandas`` over the
union of both returns the block's vertex rows with the new ``val`` and
the vertex's change ``d``, which replace the block's rows in the
checkpointed state frame. A vertex is swept once per round, so the
round's delta is one ``max(d)`` over the states after the last block.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.engine.algorithms import effective_graph, make_algo
from repro.engine.kernels import gs_sweep
from repro.engine.reference import RunResult
from repro.graphs.local import LocalGraph
from repro.reorder.api import assert_permutation

_STATE_SCHEMA = "vid long, blk long, pos long, base double, fixed double, val double, d double"
_STATE_COLS = [c.split()[0] for c in _STATE_SCHEMA.split(", ")]


def run_async_spark(
    spark: SparkSession,
    g: LocalGraph,
    algo_name: str,
    positions: np.ndarray,
    *,
    n_blocks: int = 4,
    source: int | None = None,
    max_rounds: int = 300,
) -> RunResult:
    """Run Eq. 2 under ``positions`` to convergence."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be at least 1, got {n_blocks}")
    assert_permutation(positions, g.n)
    t0 = time.perf_counter()
    algo = make_algo(algo_name)
    prep = algo.prepare(g, source)
    eg = effective_graph(g, prep)
    kind = prep.kind

    pos = np.asarray(positions).astype(np.int64)
    block = (pos * n_blocks) // g.n
    fixed_vals = np.full(g.n, np.nan)
    for v, fv in prep.fixed.items():
        fixed_vals[v] = fv

    edge_pdf = pd.DataFrame({"src": eg.src, "dst": eg.dst, "param": prep.param})
    edge_blk = block[eg.dst]
    block_edges = [
        spark.createDataFrame(
            edge_pdf[edge_blk == b], "src long, dst long, param double"
        ).localCheckpoint(eager=True)
        for b in range(n_blocks)
    ]
    states = spark.createDataFrame(
        pd.DataFrame(
            {
                "vid": np.arange(g.n, dtype=np.int64),
                "blk": block,
                "pos": pos,
                "base": prep.base,
                "fixed": fixed_vals,
                "val": prep.init,
                "d": 0.0,
            }
        ),
        _STATE_SCHEMA,
    ).localCheckpoint(eager=True)
    # the union below adds the applyInPandas output's partitions to the
    # states' own; without the coalesce the count grows with every block
    n_parts = spark.sparkContext.defaultParallelism

    def _block_fn(pdf: pd.DataFrame) -> pd.DataFrame:
        # edge rows: vid = dst, src, param, val = the source's current state;
        # vertex rows: the block's state rows, src is null
        is_edge = pdf["src"].notna()
        edges = pdf[is_edge]
        verts = pdf[~is_edge].sort_values("pos")
        order_vids = verts["vid"].tolist()
        old = verts["val"].to_numpy()
        prev_vals = dict(zip(order_vids, old.tolist()))
        base = dict(zip(order_vids, verts["base"].tolist()))
        fixed = {
            v: fv
            for v, fv in zip(order_vids, verts["fixed"].tolist())
            if not np.isnan(fv)
        }
        in_edges: dict[int, list[tuple[int, float]]] = {}
        src_vals: dict[int, float] = {}
        for v, u, p, xu in zip(
            edges["vid"].tolist(),
            edges["src"].astype(np.int64).tolist(),
            edges["param"].tolist(),
            edges["val"].tolist(),
        ):
            in_edges.setdefault(v, []).append((u, p))
            src_vals[u] = xu
        out = gs_sweep(order_vids, in_edges, prev_vals, src_vals, kind, base, fixed)
        new = np.array([out[v] for v in order_vids], dtype=np.float64)
        with np.errstate(invalid="ignore"):
            d = np.abs(new - old)
        d[new == old] = 0.0  # inf == inf is no change
        # pos is null on edge rows, so the union hands it over as float
        return verts.assign(val=new, d=d)[_STATE_COLS].astype({"pos": np.int64})

    deltas: list[float] = []
    rounds = 0
    converged = False
    for _ in range(max_rounds):
        for b, edges_b in enumerate(block_edges):
            edge_rows = edges_b.join(
                states.select(F.col("vid").alias("src"), "val"), "src"
            ).select(
                F.col("dst").alias("vid"),
                F.lit(b).cast("long").alias("blk"),
                "src",
                "param",
                "val",
            )
            updated = (
                states.where(F.col("blk") == b)
                .unionByName(edge_rows, allowMissingColumns=True)
                .groupBy("blk")
                .applyInPandas(_block_fn, _STATE_SCHEMA)
            )
            states = (
                states.where(F.col("blk") != b)
                .unionByName(updated)
                .coalesce(n_parts)
                .localCheckpoint(eager=True)
            )
        d = states.agg(F.max("d")).collect()[0][0]
        if d is None or d <= prep.tol:
            converged = True
            break
        deltas.append(float(d))
        rounds += 1

    pdf = states.select("vid", "val").toPandas().sort_values("vid")
    return RunResult(
        rounds, pdf["val"].to_numpy(), converged, deltas, time.perf_counter() - t0
    )
