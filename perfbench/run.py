"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload local-reorder --seed 0 --seconds 30 --trace 0

``--trace 0`` runs whole batches back to back until the next one would
pass ``--seconds`` (at least one; two on seq-sweep) and reports the
end-to-end metrics: times are medians over the batches, counts must
repeat exactly. ``--trace 1`` runs one untraced and one traced batch and
reports the per-layer metrics, including the tracing overhead (traced
minus untraced ``wall_s``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (environment, failures, ``failed_frac``). Metric
names and units are listed in BENCHMARK.json; README.md says what each
should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for Spark and temp files; the benchmark writes nothing else.
WORK = ROOT / ".bench_work"
#: graph generation is repeated this many times; setup_s takes the median.
SETUP_REPEATS = 3
#: seq-sweep is the shortest and noisiest batch, so its median is over two.
MIN_BATCHES = {"seq-sweep": 2}
#: two task slots leave the driver's Python, the JVM's own threads and the
#: ``applyInPandas`` workers room on a 4-core host.
SPARK_CORES = min(2, os.cpu_count() or 1)
SPARK_DRIVER_MEMORY = "1g"
#: C1 only: with the default tiered JIT, C2 kept compiling Spark's code for
#: minutes, so sync SSSP fell from ~9.8 s to ~5.7 s over ten passes in one
#: process and a timed pass measured how far compilation had got.
SPARK_JVM_OPTS = "-XX:-UsePerfData -XX:TieredStopAtLevel=1"


def _prepare_env() -> None:
    """Point imports at ``src/`` and every temp directory into the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path[0] = str(ROOT)  # not perfbench/, whose module names are generic
    sys.path.insert(1, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def _start_spark():
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no /tmp/hsperfdata_*
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{SPARK_CORES}]",
            f"--driver-memory {SPARK_DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.sql.warehouse.dir={WORK / 'spark-warehouse'}",
            f"--driver-java-options '-Djava.io.tmpdir={WORK / 'tmp'} {SPARK_JVM_OPTS}'",
            "pyspark-shell",
        ]
    )
    from repro.session import get_session

    spark = get_session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session and wait for the gateway JVM to exit."""
    import subprocess

    from pyspark import SparkContext

    gw = SparkContext._gateway
    spark.stop()
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(args, spark) -> dict:
    import numpy
    import pyspark

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "loop": "closed, one client, one driver process",
    }
    if spark is None:
        env["spark"] = "not started: this workload does not use Spark"
    else:
        sc, conf = spark.sparkContext, spark.conf
        env["spark"] = {
            "master": sc.master,
            "defaultParallelism": sc.defaultParallelism,
            "spark.sql.shuffle.partitions": conf.get("spark.sql.shuffle.partitions"),
            "spark.sql.adaptive.enabled": conf.get("spark.sql.adaptive.enabled"),
            "spark.driver.memory": sc.getConf().get("spark.driver.memory"),
        }
    return env


def _layer_metrics(batch, untraced_wall_s: float, gen_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch (0 where a layer did not run)."""
    from perfbench.workloads import LOCAL_ORDERS

    tr = batch.tracer
    c = tr.counts
    m: dict[str, float] = {"graphs.gen_s": gen_s}
    for method in LOCAL_ORDERS:
        m[f"reorder.{method}_s"] = tr.total(f"reorder.{method}")
    gg = "core.gograph."
    for phase in ("split", "partition", "conquer", "combine", "insert", "positions"):
        # a phase minus the GoGraph phases it calls (combine → conquer)
        m[f"{gg}{phase}_s"] = tr.self_time(gg + phase, within=gg)
    m[gg + "parts"] = c[gg + "parts"]
    m[gg + "get_opt_val_calls"] = c[gg + "get_opt_val_calls"]
    m[gg + "distinct_val_frac"] = c[gg + "distinct_vals"] / c[gg + "vals"] if c[gg + "vals"] else 0.0
    # gograph_positions_spark minus its driver-side phases
    m[gg + "spark_conquer_s"] = tr.self_time(gg + "spark", within="spark_gograph.")
    m["partition.labelprop_s"] = tr.total("partition.labelprop")
    m["partition.cap_sizes_s"] = tr.total("partition.cap_sizes")
    ref = "engine.reference."
    for name in ("gs_fast", "jacobi", "gs_python", "per_round_time"):
        m[f"{ref}{name}_s"] = tr.total(ref + name)
    gs_py = m[ref + "gs_python_s"]
    m[ref + "edge_updates_per_s"] = batch.edge_updates / gs_py if gs_py else 0.0

    def secs(d, key):
        return sum(tr.speed.seconds(a, b) for a, b in d.get(key, ()))

    def per(x, d, base):
        return x / d[base] if d.get(base) else 0.0

    sync, asy = batch.probes.spark["sync"], batch.probes.spark["async"]
    m["engine.spark_sync.round_s"] = per(secs(sync, "rounds_in"), sync, "rounds")
    m["engine.spark_sync.jobs_per_round"] = per(sync["jobs"], sync, "rounds")
    m["engine.spark_sync.tasks_per_round"] = per(sync["tasks"], sync, "rounds")
    m["engine.spark_async.prepare_s"] = per(secs(asy, "prepare"), asy, "calls")
    m["engine.spark_async.round_s"] = per(secs(asy, "rounds_in"), asy, "rounds")
    n_blocks = len(asy.get("blocks", ()))
    m["engine.spark_async.block_s"] = secs(asy, "blocks") / n_blocks if n_blocks else 0.0
    m["engine.spark_async.jobs_per_round"] = per(asy["jobs"], asy, "rounds")
    m["engine.spark_async.stages_per_round"] = per(asy["stages"], asy, "rounds")
    m["engine.spark_async.tasks_per_round"] = per(asy["tasks"], asy, "rounds")
    m["engine.spark_async.failed_tasks"] = asy["failed_tasks"]
    m["cachesim.trace_s"] = tr.total("cachesim.trace")
    m["cachesim.lru_s"] = tr.total("cachesim.lru")
    m["cachesim.accesses"] = c["cachesim.accesses"]
    wall = batch.e2e()["wall_s"]
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced_wall_s
    return m


def run(args) -> tuple[dict, dict]:
    """Set up, measure; returns (result line, run record)."""
    from perfbench import workloads as wl
    from perfbench.spans import ChildProbe, HostSpeed

    setup_fn, batch_fn = wl.WORKLOADS[args.workload]
    on_spark = args.workload == "spark-fig8"
    spark = None
    # Spark work runs in the JVM while the driver thread waits, so there
    # a child process samples the host speed (perfbench/spans.py).
    speed = ChildProbe(WORK / "host-speed.txt") if on_spark else HostSpeed()
    try:
        gen = []
        for _ in range(SETUP_REPEATS):
            speed.mark()
            t = time.perf_counter()
            state = setup_fn(args.seed, args.scale, None) if on_spark else setup_fn(args.seed, args.scale)
            gen.append((t, time.perf_counter()))
        speed.mark()
        gen_s = statistics.median(speed.seconds(a, b) for a, b in gen)
        setup_s = gen_s
        if on_spark:
            t = time.perf_counter()
            spark = _start_spark()
            state["spark"] = spark
            wl.spark_warmup(state)
            t1 = time.perf_counter()
            speed.mark()
            setup_s += speed.seconds(t, t1)
        print(f"# setup {setup_s:.2f}s", file=sys.stderr)

        def one(trace_on: bool):
            b = wl.new_batch(trace_on, speed if on_spark else HostSpeed())
            with b.probes.batch(), b.tracer.span("batch") as b.wall:
                batch_fn(state, b)
            b.tracer.probe()
            print(f"# batch {b.e2e()['wall_s']:.2f}s trace={int(trace_on)}", file=sys.stderr)
            return b

        start = time.perf_counter()
        batches = [one(False)]
        if args.trace:
            batches.append(one(True))
        else:
            least = MIN_BATCHES.get(args.workload, 1)
            last = batches[-1].wall
            while len(batches) < least or time.perf_counter() - start + last[2] - last[1] <= args.seconds:
                batches.append(one(False))
                last = batches[-1].wall
        env = _environment(args, spark)
    finally:
        if spark is not None:
            _stop_spark(spark)
        if on_spark:
            speed.close()

    first = batches[0]
    repeatable = all(b.counts() == first.counts() for b in batches)
    attempted = sum(b.cells for b in batches)
    failed = sum(b.failed for b in batches)
    per_batch = [b.e2e() for b in batches]
    if args.trace:
        metrics = _layer_metrics(batches[-1], per_batch[0]["wall_s"], gen_s)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(e["wall_s"] for e in per_batch),
            "gograph_s": statistics.median(e["gograph_s"] for e in per_batch),
            "sync_s": statistics.median(e["sync_s"] for e in per_batch),
            **first.counts(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "environment": env,
        "batches": len(batches),
        "batch_wall_s": [e["wall_s"] for e in per_batch],
        "batch_wall_clock_s": [b.wall[2] - b.wall[1] for b in batches],
        "failed_frac": failed / attempted,
        "counts_repeat_exactly": repeatable,
        "failures": sorted({f for b in batches for f in b.failures}),
        "peak_rss_note": "driver process only; Spark's JVM is not included",
        "time_note": "calibrated seconds (perfbench/spans.py); spark-fig8 samples the host speed in a child process",
    }
    result = {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.trace:
        out = WORK / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps(batches[-1].tracer.dump()))
        record["trace_file"] = str(out.relative_to(ROOT))
    return result, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["local-reorder", "seq-sweep", "spark-fig8"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--scale", type=float, default=1.0, help="graph size factor; below 1 only for smoke tests"
    )
    args = ap.parse_args(argv)
    _prepare_env()
    result, record = run(args)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} cells failed / attempted")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
