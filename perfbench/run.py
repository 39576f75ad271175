"""Benchmark of the local Spark simulation, end to end and layer by layer.

    python3 perfbench/run.py --workload superstep-pk --seed 11 --seconds 15 --trace 0

Runs from the root of a checkout, in one Python process with one local Spark
session from ``repro.session.get_spark``. Set-up starts the session, repeats
the workload's preparation, then warms up with one untimed pass over the op
mix. The timed section runs whole passes until ``--seconds`` have elapsed
(at least two). Every op's output is checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is a separate
run that wraps the public calls into each layer, alternates untraced and
traced passes, reports the per-layer metrics and writes the spans as JSONL
under ``.perfbench/``. See perfbench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
# Tasks are tiny (4 partitions on PK); two task threads leave cores for the
# driver's Python, JIT and GC threads, and time no worse than four.
MAX_CORES = 2
# The heap is fixed (-Xms = -Xmx), so the JVM's peak RSS does not depend on
# when the collector decides to grow the heap.
DRIVER_MEM = "1g"
# C1 only, with room for all of its code. With C2 (the JVM's default) every
# pass of the mix ran faster than the one before for about a minute, while two
# C2 compiler threads worked through Spark's planner and the code it generates;
# no run in the benchmark's budget warms up that long. C1 compiles in a
# fraction of the time and its pass times level off after the warm-up. C1's
# default code cache is 48 MB; in a run with it, the code-cache sweeper took
# 3 s of CPU in one pass.
JIT = "-XX:TieredStopAtLevel=1 -XX:ReservedCodeCacheSize=256m"
# Timed passes at least, however short ``--seconds`` is. A third pass would
# not fit the run budget: 48 runs in 3,420 s, with set-up taking half a run.
MIN_PASSES = 2


def _configure_environment(work: Path) -> None:
    """Keep Spark local, small, and writing only under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark")
    os.environ["SPARK_SUBMIT_OPTS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -Xms{DRIVER_MEM} {JIT}"
    os.environ["SPARK_MASTER"] = f"local[{min(MAX_CORES, os.cpu_count() or 1)}]"
    os.environ["SPARK_DRIVER_MEM"] = DRIVER_MEM
    sys.path.insert(0, str(ROOT / "src"))


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Bench:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.tracer = None
        self.correct = True
        self.spark = None

    # -- one op ---------------------------------------------------------------
    def _op(self, label: str, name: str, fn, instance: str):
        """Run one op under its own job group ``bench/<workload>/<op>/<instance>``.

        Returns (seconds, raised, output, group); an op that raises is
        reported and counts as failed.
        """
        sc = self.spark.sparkContext
        group = f"bench/{self.workload.name}/{name}/{instance}"
        sc.setJobGroup(group, group)
        if self.tracer is not None:
            self.tracer.set_base_description(group)
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                out = self.tracer.span(label, fn, op=name, group=group)
            else:
                out = fn()
            return time.perf_counter() - t0, False, out, group
        except Exception:  # noqa: BLE001 - op boundary: report and go on
            traceback.print_exc()
            return time.perf_counter() - t0, True, None, group
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)

    def _checked(self, name: str, raised: bool, out) -> bool:
        if raised:
            return False
        try:
            self.workload.check(name, out)
        except AssertionError as e:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
            return False
        return True

    # -- the run --------------------------------------------------------------
    def run(self) -> dict:
        args = self.args
        if args.trace:
            from tracing import Tracer, install

            self.tracer = Tracer()
            install(self.tracer)
            self.tracer.on = True
        import repro.session as session

        t0 = time.perf_counter()
        self.spark = session.get_spark(f"perfbench-{args.workload}")
        session_s = time.perf_counter() - t0
        gateway = self.spark.sparkContext._gateway
        try:
            return self._measure(session_s)
        finally:
            if self.tracer is not None:
                self.tracer.close()
            jvm_mb = _vm_hwm_mb(gateway.proc.pid)
            self.spark.stop()
            gateway.shutdown()
            gateway.proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                gateway.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                gateway.proc.kill()
                gateway.proc.wait()
            self.peak_rss_mb = jvm_mb + resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _measure(self, session_s: float) -> dict:
        from workloads import WORKLOADS

        args = self.args
        if self.tracer is not None:
            self.tracer.bind(self.spark.sparkContext)
        wl = self.workload = WORKLOADS[args.workload](
            args.seed, self.spark, record=args.record_fingerprint
        )
        self.units = []  # traced runs: (unit span, its GroupJobs, op output)

        prep_s = []
        for i in range(wl.preps):
            dt, raised, _, group = self._op("bench.prep", "prep", wl.prepare, str(i))
            self.correct &= not raised
            prep_s.append(dt)
            self._collect_unit(group)

        ops = wl.ops()
        if self.tracer is not None:
            self.tracer.on = False
        t0 = time.perf_counter()
        for name, fn in ops:  # warm-up: every plan shape of the timed mix
            _, raised, out, _ = self._op("bench.op", name, fn, "warmup")
            self.correct &= self._checked(name, raised, out)
        warm_s = time.perf_counter() - t0
        if args.record_fingerprint:
            wl.save_fingerprint()

        op_s, pass_s, traced_pass_s, step_ms, pass_steps = [], [], [], [], []
        attempted = failed = 0
        t_start = time.perf_counter()
        p = 0
        status_s = 0.0  # traced runs: time spent reading the status store
        while p < MIN_PASSES or time.perf_counter() - t_start - status_s < args.seconds:
            traced = self.tracer is not None and p % 2 == 1
            if self.tracer is not None:
                self.tracer.on = traced
            t_pass = time.perf_counter()
            pass_status_s = 0.0
            steps = loop_s = 0.0
            for name, fn in ops:
                dt, raised, out, group = self._op("bench.op", name, fn, f"pass{p}")
                attempted += 1
                ok = self._checked(name, raised, out)
                failed += not ok
                self.correct &= ok
                op_s.append(dt)
                if ok:
                    n, secs = wl.loop(out, dt)
                    steps += n
                    loop_s += secs
                if traced:  # reading the status store is not part of the pass
                    t0 = time.perf_counter()
                    self._collect_unit(group, out)
                    pass_status_s += time.perf_counter() - t0
            status_s += pass_status_s
            elapsed = time.perf_counter() - t_pass - pass_status_s
            (traced_pass_s if traced else pass_s).append(elapsed)
            if not traced:
                step_ms.append(1000 * loop_s / max(steps, 1))
                pass_steps.append(steps)
            p += 1

        setup_s = session_s + (statistics.median(prep_s) if prep_s else 0.0) + warm_s
        self.summary = {
            "workload": wl.name, "seed": args.seed, "passes": p, "ops": attempted,
            "op_samples": len(op_s), "session_s": session_s, "prep_s": prep_s,
            "warmup_s": warm_s, "pass_s": pass_s, "traced_pass_s": traced_pass_s,
            "supersteps_per_pass": pass_steps,
            "fail_ratio": failed / attempted,
        }
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(pass_s), "s"),
            "op_s.p50": (statistics.median(op_s), "s"),
            "superstep_ms.mean": (statistics.median(step_ms), "ms"),
        }
        if self.tracer is not None:
            from layers import layer_metrics

            self.trace_path = WORK / f"trace-{wl.name}-seed{args.seed}.jsonl"
            metrics = layer_metrics(self, session_s, pass_s, traced_pass_s)
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    def _collect_unit(self, group: str, out=None) -> None:
        """Traced runs: attribute the unit's Spark jobs to the spans."""
        if self.tracer is None or not self.tracer.on:
            return
        from tracing import group_jobs

        unit = next(s for s in reversed(self.tracer.spans) if s.parent is None)
        jobs = group_jobs(self.spark.sparkContext, group)
        for jid, sid in jobs.span_of.items():
            if sid is not None:
                self.tracer.spans[sid].jobs.append(jid)
        self.units.append((unit, jobs, out))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["superstep-pk", "ingest-rrg"])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--record-fingerprint", action="store_true",
        help="write the counter fingerprint of the default seed instead of checking it",
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the finally blocks that stop the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK / f"run-{os.getpid()}"
    _configure_environment(work)
    try:
        bench = Bench(args)
        result = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = (bench.peak_rss_mb, "MB")
    print("perfbench: " + json.dumps(bench.summary), file=sys.stderr)
    for k, (v, unit) in metrics.items():
        print(f"{k:40s} {v:14.4f} {unit}")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
