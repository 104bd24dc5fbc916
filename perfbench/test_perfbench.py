"""Self-tests of the benchmark: span arithmetic, host-speed probes, Spark
job-group counts, seeded inputs, and a small-scale smoke run of every
workload.

Run from the repository root:

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.probes import GOGRAPH_PHASES, Probes, job_group_counts  # noqa: E402
from perfbench.spans import ChildProbe, HostSpeed, Tracer  # noqa: E402
from perfbench.workloads import seeded_graph  # noqa: E402
from repro.graphs.gen import DATASETS, dataset_graph  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _tracer(slowdown: list[float] | None = None) -> tuple[Tracer, FakeClock]:
    """Tracer on a fake clock whose probe takes NOMINAL_S × slowdown[0]."""
    clock, slow = FakeClock(), slowdown or [1.0]
    speed = HostSpeed(clock, work=lambda: clock.advance(HostSpeed.NOMINAL_S * slow[0]))
    return Tracer(speed), clock


def test_self_time_subtracts_nested_conquer_from_combine():
    tr, clock = _tracer()
    tr.probe()
    with tr.span("core.gograph.combine"):
        clock.advance(1.0)
        with tr.span("core.gograph.conquer"):
            clock.advance(2.0)
        clock.advance(1.0)
    with tr.span("core.gograph.conquer"):
        clock.advance(2.5)
    tr.probe()
    assert tr.total("core.gograph.combine") == pytest.approx(4.0)
    assert tr.self_time("core.gograph.combine") == pytest.approx(2.0)
    assert tr.total("core.gograph.conquer") == pytest.approx(4.5)
    assert tr.self_time("core.gograph.conquer") == pytest.approx(4.5)


def test_self_time_within_keeps_other_layers_children():
    tr, clock = _tracer()
    tr.probe()
    with tr.span("core.gograph.partition"):
        clock.advance(1.0)
        with tr.span("partition.labelprop"):
            clock.advance(1.5)
        clock.advance(0.5)
    tr.probe()
    assert tr.self_time("core.gograph.partition") == pytest.approx(1.5)
    assert tr.self_time("core.gograph.partition", within="core.gograph.") == pytest.approx(3.0)


def test_host_speed_scales_by_probes_and_skips_probe_time():
    slow = [1.0]
    tr, clock = _tracer(slow)
    tr.probe()
    with tr.span("fast") as fast:
        clock.advance(10.0)
    slow[0] = 2.0  # the host now runs the probe at half speed
    tr.probe()
    with tr.span("slow") as slow_span:
        clock.advance(10.0)
    tr.probe()
    assert tr.length(fast) == pytest.approx(7.5)  # mean of factors 1 and 0.5
    assert tr.length(slow_span) == pytest.approx(5.0)
    first, last = tr.speed.marks[0], tr.speed.marks[-1]
    assert tr.speed.seconds(first[0], last[1]) == pytest.approx(12.5)


def test_child_probe_brackets_intervals_and_stops(tmp_path):
    speed = ChildProbe(tmp_path / "speed.txt")
    try:
        speed.mark()
        a = time.perf_counter()
        time.sleep(0.3)
        b = time.perf_counter()
        speed.mark()
        starts = [m[0] for m in speed.marks]
        assert starts == sorted(starts)
        assert starts[0] < a and starts[-1] > b
        assert sum(a < t < b for t in starts) >= 2
        assert speed.seconds(a, b) > 0
    finally:
        speed.close()
    assert speed.proc.returncode is not None


def test_gograph_probes_time_phases_without_changing_the_order():
    import repro.core.gograph as gg

    g = dataset_graph("IC", scale=0.1)
    originals = {a: getattr(gg, a) for a in [*GOGRAPH_PHASES, "get_opt_val"]}
    expect = gg.gograph_order(g)
    tr = Tracer()
    probes = Probes(tr, on=True)
    tr.probe()
    with probes.batch(), probes.gograph():
        got = gg.gograph_order(g)
    tr.probe()
    assert np.array_equal(got, expect)
    assert {a: getattr(gg, a) for a in originals} == originals
    names = {s[0] for s in tr.spans}
    for phase in GOGRAPH_PHASES.values():
        assert "core.gograph." + phase in names
    assert "partition.labelprop" in names
    combine = tr.total("core.gograph.combine")
    nested = sum(
        tr.length(s)
        for s in tr.spans
        if s[0] == "core.gograph.conquer"
        and s[3] is not None
        and tr.spans[s[3]][0] == "core.gograph.combine"
    )
    assert nested > 0
    assert tr.self_time("core.gograph.combine", within="core.gograph.") == pytest.approx(
        combine - nested
    )
    c = tr.counts
    assert c["core.gograph.get_opt_val_calls"] >= g.n - 1
    assert c["core.gograph.vals"] == g.n
    assert 0 < c["core.gograph.distinct_vals"] <= g.n
    assert c["core.gograph.parts"] >= 1


def test_seed_zero_is_the_dataset_stand_in():
    for name in DATASETS:
        a, b = seeded_graph(name, 0, 0.1), dataset_graph(name, scale=0.1)
        assert a.n == b.n
        for x, y in ((a.src, b.src), (a.dst, b.dst), (a.w, b.w)):
            assert np.array_equal(x, y)
    assert not np.array_equal(seeded_graph("IC", 1, 0.1).src, dataset_graph("IC", scale=0.1).src)


def test_job_group_counts_are_per_engine_call(spark):
    from repro.engine.spark_sync import run_sync_spark
    from repro.graphs.gen import ba_graph

    g = ba_graph(60, 2, forward_frac=0.3, seed=3)
    probes = Probes(Tracer(), on=True)
    first, _ = probes.spark_call(spark, "sync", "engine.spark_sync", lambda: run_sync_spark(spark, g, "bfs"))
    one = dict(probes.spark["sync"])
    probes.spark_call(spark, "sync", "engine.spark_sync", lambda: run_sync_spark(spark, g, "bfs"))
    two = probes.spark["sync"]
    assert one["calls"] == 1 and two["calls"] == 2
    assert one["rounds"] == first.rounds + 1
    assert one["jobs"] > first.rounds and one["tasks"] >= one["stages"] > first.rounds
    assert one["failed_tasks"] == 0
    for k in ("jobs", "stages", "tasks", "rounds"):
        assert two[k] == 2 * one[k], k
    sc = spark.sparkContext
    sc.setJobGroup("perfbench-test-a", "a")
    spark.range(10).count()
    sc.setLocalProperty("spark.jobGroup.id", None)
    assert job_group_counts(sc, "perfbench-test-a")["jobs"] >= 1
    assert job_group_counts(sc, "perfbench-test-none")["jobs"] == 0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_metric_with_its_unit(workload, trace):
    scale = "0.2" if workload == "spark-fig8" else "0.05"
    p = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--scale", scale)
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    if trace == "0":
        assert all(v["value"] != 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "--workload", "local-reorder", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert not p.stdout.strip()
