"""Per-layer metrics of a traced run, computed from its spans and jobs.

Units are the benchmark's own top-level spans: ``bench.prep`` (set-up) and
``bench.op`` (ops of the traced passes). *Ingest units* are those that built
a graph; the ingest layers (generators, graph, partition, rrg) are reported
as the median over ingest units of the layer's self time in the unit.

A *loop span* is a superstep loop inside a traced op: ``Engine.run`` on
the sweeps, ``generate_rrg`` (one Spark superstep per BFS level) on
ingest-rrg. Superstep phases are summed over loop spans and divided by
their supersteps.
"""
from __future__ import annotations

import statistics
import sys

from tracing import COLLECT, PHASES, UPLOAD
from workloads import ENGINES


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(bench, session_s: float, pass_s: list[float],
                  traced_pass_s: list[float]) -> dict[str, tuple[float, str]]:
    tr = bench.tracer
    kids: dict[int | None, list] = {}
    for s in tr.spans:
        kids.setdefault(s.parent, []).append(s)

    def below(span) -> list:
        out, todo = [], list(kids.get(span.id, []))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids.get(s.id, []))
        return out

    def layer_of(span):
        """The span itself, or for a Spark phase the layer call that ran it."""
        while span.name in PHASES and span.parent is not None:
            span = tr.spans[span.parent]
        return span

    units = [(u, jobs, out, below(u)) for u, jobs, out in bench.units]
    ingest = [x for x in units if any(s.name == "graph.build" for s in x[3])]

    def per_ingest(name_ok, value) -> float:
        vals = [sum(value(s) for s in spans if name_ok(s.name))
                for _, _, _, spans in ingest]
        return _median(vals)

    def self_s(name):
        return per_ingest(lambda n: n == name, tr.self_time)

    def layer_jobs(prefix):
        vals = []
        for _, jobs, _, _ in ingest:
            vals.append(sum(
                1 for sid in jobs.span_of.values()
                if sid is not None and layer_of(tr.spans[sid]).name.startswith(prefix)
            ))
        return _median(vals)

    m: dict[str, tuple[float, str]] = {
        "session.start_s": (session_s, "s"),
        "generators.rmat_s": (self_s("generators.rmat"), "s"),
        "graph.build_s": (self_s("graph.build"), "s"),
        "graph.edges_pdf_s": (self_s("graph.edges_pdf"), "s"),
        "graph.undirected_s": (self_s("graph.undirected"), "s"),
        "graph.spark_jobs": (layer_jobs("graph."), "count"),
    }
    for e in ENGINES:
        m[f"partition.statics_s.{e}"] = (self_s(f"partition.statics.{e}"), "s")
    gen_s = [sum(tr.self_time(s) for s in spans if s.name == "rrg.generate")
             for _, _, _, spans in ingest]
    levels = [sum(s.attrs["levels"] for s in spans if s.name == "rrg.generate")
              for _, _, _, spans in ingest]
    m["rrg.generate_s"] = (_median(gen_s), "s")
    m["rrg.levels"] = (_median(levels), "count")
    m["rrg.ms_per_level"] = (
        _median([1000 * g / max(n, 1) for g, n in zip(gen_s, levels)]), "ms")
    m["rrg.spark_jobs"] = (layer_jobs("rrg."), "count")

    # -- superstep loops of the traced ops -----------------------------------
    by_loop: dict[str, list[float]] = {}
    group_of_loop = []
    for u, jobs, out, spans in units:
        _check_unit(bench, u, jobs, out, spans)
        if u.name != "bench.op":
            continue
        for s in spans:
            if not (s.name.startswith("engine.run.") or s.name == "rrg.generate"):
                continue
            steps = s.attrs.get("supersteps", s.attrs.get("levels", 0))
            children = kids.get(s.id, [])
            up = sum(c.dur for c in children if c.name == UPLOAD)
            sp = sum(c.dur for c in children if c.name == COLLECT)
            drv = s.dur - sum(c.dur for c in children)
            acc = by_loop.setdefault(s.name, [0.0, 0.0, 0.0, 0.0])
            for i, v in enumerate((up, sp, drv, steps)):
                acc[i] += v
            inside = {s.id} | {c.id for c in below(s)}
            loop_jobs = [j for j, sid in jobs.span_of.items() if sid in inside]
            group_of_loop.append(jobs.counts(loop_jobs))

    up, sp, drv, steps = (sum(a[i] for a in by_loop.values()) for i in range(4))
    steps = max(steps, 1)
    n_passes = max(len(traced_pass_s), 1)
    m["superstep.upload_ms"] = (1000 * up / steps, "ms")
    m["superstep.spark_ms"] = (1000 * sp / steps, "ms")
    m["superstep.driver_ms"] = (1000 * drv / steps, "ms")
    m["supersteps"] = (steps / n_passes, "count")
    for key, unit in (("jobs", "count"), ("stages", "count"), ("tasks", "count"),
                      ("shuffle_bytes", "bytes")):
        total = sum(c[key] for c in group_of_loop)
        m[f"spark.{key}_per_superstep"] = (total / steps, unit)
    m["trace.overhead_s"] = (_median(traced_pass_s) - _median(pass_s), "s")

    bench.summary["per_loop"] = {
        name: {"supersteps": a[3], "upload_ms": 1000 * a[0] / max(a[3], 1),
               "spark_ms": 1000 * a[1] / max(a[3], 1),
               "driver_ms": 1000 * a[2] / max(a[3], 1)}
        for name, a in sorted(by_loop.items())
    }
    path = bench.trace_path
    tr.write_jsonl(path)
    bench.summary["trace_file"] = str(path)
    return m


def _check_unit(bench, unit, jobs, out, spans) -> None:
    """Traced totals must equal what statusTracker and RunMetrics report."""
    spans_by_id = bench.tracer.spans
    untagged = [j for j, sid in jobs.span_of.items()
                if sid is None or spans_by_id[sid].name.startswith("bench.")]
    if untagged:
        bench.correct = False
        print(f"perfbench: {unit.attrs.get('op')}: jobs {untagged} ran outside every "
              "traced layer call", file=sys.stderr)
    runs = [s for s in spans if s.name.startswith("engine.run.")]
    if runs and out is not None:
        traced = sum(s.attrs["supersteps"] for s in runs)
        counted = bench.workload.loop(out, 0.0)[0]  # from the ops' RunMetrics
        if traced != counted:
            bench.correct = False
            print(f"perfbench: {unit.attrs.get('op')}: traced supersteps {traced} != "
                  f"RunMetrics {counted}", file=sys.stderr)
