"""Per-layer probes for the traced run.

An untraced batch only times the calls the workload makes itself. A
traced batch (``Probes(tracer, on=True)``) also

* wraps the module-level callees of ``gograph_order`` (split, partition,
  conquer = ``reorder_subgraph``, combine = ``_order_supers_and_offsets``,
  insert, positions) and counts ``get_opt_val`` calls, parts and distinct
  ``val``s;
* wraps the partition layer's ``labelprop_communities`` and ``cap_sizes``
  as ``repro.partition.api`` calls them (GoGraph's divide phase);
* runs each Spark engine call in its own job group and reads the job,
  stage and task counts from ``statusTracker()`` right after the call,
  because the tracker keeps only the most recent ~1,000 jobs;
* stamps every eager ``localCheckpoint`` return inside an engine call,
  which splits the call into set-up, rounds and blocks.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable

import numpy as np

from perfbench.spans import Tracer, spanned, wrap_attr

#: module-level callee of ``gograph_order`` → phase name.
GOGRAPH_PHASES = {
    "_split_graph": "split",
    "partition": "partition",
    "reorder_subgraph": "conquer",
    "_order_supers_and_offsets": "combine",
    "_insert_remaining": "insert",
    "_vals_to_positions": "positions",
}

#: ``localCheckpoint`` calls each Spark engine makes before its first
#: round (sync: edges, vertices, states; async: static, states, vid_block).
SPARK_PREPARE_CHECKPOINTS = 3


class Probes:
    """Switchable probes; with ``on=False`` every hook is a no-op."""

    def __init__(self, tracer: Tracer, on: bool):
        self.tr = tracer
        self.on = on
        self._group = 0
        # engine name → counts summed over its calls in the batch, and
        # (start, end) clock intervals under "prepare", "rounds", "blocks"
        self.spark: dict[str, dict] = defaultdict(lambda: defaultdict(float))

    def batch(self) -> contextlib.AbstractContextManager:
        """Probes that stay installed for a whole traced batch."""
        if not self.on:
            return contextlib.nullcontext()
        import repro.partition.api as api

        st = contextlib.ExitStack()
        st.enter_context(
            wrap_attr(api, "labelprop_communities", spanned(self.tr, "partition.labelprop"))
        )
        st.enter_context(wrap_attr(api, "cap_sizes", spanned(self.tr, "partition.cap_sizes")))
        return st

    def gograph(self, prefix: str = "core.gograph.", *, local: bool = True):
        """Phase spans around one GoGraph call.

        ``local=False`` is for ``gograph_positions_spark``: its conquer
        phase is a closure shipped to Spark workers, which would carry a
        wrapped ``reorder_subgraph`` (and this tracer) with it, so the
        conquer and ``get_opt_val`` probes stay off for that call.
        """
        if not self.on:
            return contextlib.nullcontext()
        import repro.core.gograph as gg

        tr = self.tr
        st = contextlib.ExitStack()
        for attr, phase in GOGRAPH_PHASES.items():
            if attr == "reorder_subgraph" and not local:
                continue
            make = spanned(tr, prefix + phase)
            if attr == "partition" and local:
                make = _after(make, lambda out: tr.count(prefix + "parts", len(np.unique(out))))
            if attr == "_vals_to_positions" and local:
                make = _before(make, lambda n, vals: _count_vals(tr, prefix, vals))
            st.enter_context(wrap_attr(gg, attr, make))
        if local:
            st.enter_context(wrap_attr(gg, "get_opt_val", _counted(tr, prefix + "get_opt_val_calls")))
        return st

    def spark_call(self, spark, engine: str, span: str, fn: Callable):
        """Run one Spark engine call inside ``span``; returns (result, span).

        Traced: the call gets its own job group, checkpoint stamps and
        tracker counts, summed into ``self.spark[engine]``. The result's
        ``rounds`` + 1 (the uncounted detection round) is the round count.
        """
        if not self.on:
            with self.tr.span(span) as rec:
                res = fn()
            return res, rec
        sc = spark.sparkContext
        self._group += 1
        group = f"perfbench-{self._group}"
        sc.setJobGroup(group, span)
        stamps: list[float] = []
        with _checkpoint_stamps(stamps), self.tr.span(span) as rec:
            res = fn()
        sc.setLocalProperty("spark.jobGroup.id", None)
        s = self.spark[engine]
        s["calls"] += 1
        s["rounds"] += res.rounds + 1
        ready = stamps[SPARK_PREPARE_CHECKPOINTS - 1]
        s.setdefault("prepare", []).append((rec[1], ready))
        s.setdefault("rounds_in", []).append((ready, rec[2]))
        after = stamps[SPARK_PREPARE_CHECKPOINTS - 1 :]
        s.setdefault("blocks", []).extend(zip(after, after[1:]))
        for k, v in job_group_counts(sc, group).items():
            s[k] += v
        return res, rec


def job_group_counts(sc, group: str) -> dict[str, int]:
    """Jobs, stages run, completed tasks and failed tasks of one job group.

    A stage whose shuffle output is reused is listed under its job but
    runs no task; it is not counted."""
    tracker = sc.statusTracker()
    jobs = stages = tasks = failed = 0
    for jid in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        jobs += 1
        for sid in info.stageIds:
            st = tracker.getStageInfo(sid)
            if st is None or st.numCompletedTasks + st.numFailedTasks == 0:
                continue
            stages += 1
            tasks += st.numCompletedTasks
            failed += st.numFailedTasks
    return {"jobs": jobs, "stages": stages, "tasks": tasks, "failed_tasks": failed}


def _count_vals(tr: Tracer, prefix: str, vals: dict) -> None:
    tr.count(prefix + "distinct_vals", len(set(vals.values())))
    tr.count(prefix + "vals", len(vals))


def _after(make, hook):
    def wrapped(fn):
        inner = make(fn)

        def call(*a, **kw):
            out = inner(*a, **kw)
            hook(out)
            return out

        return call

    return wrapped


def _before(make, hook):
    def wrapped(fn):
        inner = make(fn)

        def call(*a, **kw):
            hook(*a, **kw)
            return inner(*a, **kw)

        return call

    return wrapped


def _counted(tr: Tracer, name: str):
    def make(fn):
        def call(*a, **kw):
            tr.count(name)
            return fn(*a, **kw)

        return call

    return make


@contextlib.contextmanager
def _checkpoint_stamps(stamps: list[float]):
    from pyspark.sql.classic.dataframe import DataFrame

    def make(fn):
        def call(self, *a, **kw):
            out = fn(self, *a, **kw)
            stamps.append(time.perf_counter())
            return out

        return call

    with wrap_attr(DataFrame, "localCheckpoint", make):
        yield
