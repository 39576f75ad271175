"""In-memory spans around the public calls into each layer of ``repro``.

The benchmark records spans from its own code only. :func:`install` wraps
the public functions and methods of each layer, plus the two pyspark calls
a superstep's phases go through. Every wrapped call becomes a span with its
parent, start and end. Spans stay in memory and are written as JSONL once
the run ends.

Spark jobs are attributed to spans exactly: each span sets the job
description to its own id while it runs, so every job launched inside it is
tagged with the innermost open span. :func:`group_jobs` reads those tags
back from the status store together with each job's stages, tasks and
shuffle bytes.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from py4j.protocol import Py4JJavaError
from pyspark import SparkContext

#: span names of the phases a superstep runs through inside ``Engine.run``
UPLOAD = "spark.upload"  # SparkSession.createDataFrame
COLLECT = "spark.collect"  # DataFrame.toPandas
PHASES = (UPLOAD, COLLECT)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    jobs: list[int] = field(default_factory=list)  # jobs tagged with this span

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; wrappers call :meth:`call`, which records when ``on``."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._sc: SparkContext | None = None
        self._base_desc: str | None = None

    # -- recording ------------------------------------------------------------
    def bind(self, sc: SparkContext) -> None:
        self._sc = sc

    def set_base_description(self, desc: str | None) -> None:
        """Job description to restore when no span is open (the op's group)."""
        self._base_desc = desc

    def _describe(self, span: Span | None) -> None:
        if self._sc is not None:
            desc = f"span:{span.id}" if span is not None else self._base_desc
            self._sc.setLocalProperty("spark.job.description", desc)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Callable[[Any], dict] | None = None) -> Any:
        if not self.on:
            return fn(*args, **kwargs)
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        self._describe(span)
        try:
            out = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(out))
            return out
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._describe(self._stack[-1] if self._stack else None)

    def span(self, name: str, fn: Callable[[], Any], **attrs: Any) -> Any:
        """Record ``fn()`` as a span of the benchmark's own (an op, a prep)."""
        return self.call(name, fn, (), {}, lambda _: attrs)

    # -- wrapping -------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str | Callable[[Any], str],
             attrs: Callable[[Any], dict] | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper (undone by :meth:`close`).

        ``name`` may be a callable of the first argument (the bound object of
        a method), e.g. to name a span after the engine it runs.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args[0]) if callable(name) else name
            return tracer.call(span_name, orig, args, kwargs, attrs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def close(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- queries --------------------------------------------------------------
    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part covered by child spans of *other layers*.

        The Spark phases (upload, collect) a layer call runs through are that
        layer's own work, so they count towards its self time.
        """
        covered = 0.0
        todo = list(self.children(span))
        while todo:
            c = todo.pop()
            if c.name in PHASES:
                todo.extend(self.children(c))
            else:
                covered += c.dur
        return span.dur - covered

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self": self.self_time(s),
                    "jobs": s.jobs, **s.attrs,
                }) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public calls into each layer (see README.md for the table)."""
    from pyspark.sql import SparkSession
    from pyspark.sql.classic.dataframe import DataFrame

    import repro.core.rrg as rrg
    import repro.graphs.generators as generators
    import repro.graphs.graph as graph
    import repro.session as session
    from repro.core.slfe import SlfeEngine
    from repro.engines import Engine, GeminiEngine, PowerGraphEngine, PowerLyraEngine

    tracer.wrap(session, "get_spark", "session.start")
    tracer.wrap(generators, "rmat_edges", "generators.rmat")
    tracer.wrap(graph, "build_graph", "graph.build")
    tracer.wrap(graph.Graph, "edges_pdf", "graph.edges_pdf")
    tracer.wrap(graph.Graph, "as_undirected", "graph.undirected")
    for cls in (GeminiEngine, PowerGraphEngine, PowerLyraEngine, SlfeEngine):
        tracer.wrap(cls, "vertex_statics", f"partition.statics.{cls.name}")
    tracer.wrap(rrg, "generate_rrg", "rrg.generate",
                attrs=lambda r: {"levels": r.iterations})
    tracer.wrap(Engine, "run", lambda eng: f"engine.run.{eng.name}",
                attrs=lambda r: {"supersteps": r.metrics.iterations})
    tracer.wrap(SparkSession, "createDataFrame", UPLOAD)
    tracer.wrap(DataFrame, "toPandas", COLLECT)


@dataclass
class GroupJobs:
    """The Spark jobs of one job group, as the status store recorded them."""

    span_of: dict[int, int | None]  # job id -> id of the span that launched it
    stages_of: dict[int, list[int]]  # job id -> stage ids (skipped ones too)
    stage_work: dict[int, tuple[int, int]]  # attempted stage -> (tasks, shuffle bytes)

    def counts(self, jobs: list[int]) -> dict[str, int]:
        """Jobs, stages, tasks and shuffle-write bytes of a subset of jobs."""
        stages = {sid for j in jobs for sid in self.stages_of[j]}
        work = [self.stage_work[s] for s in stages if s in self.stage_work]
        return {
            "jobs": len(jobs),
            "stages": len(stages),
            "tasks": sum(t for t, _ in work),
            "shuffle_bytes": sum(b for _, b in work),
        }


def group_jobs(sc: SparkContext, group: str) -> GroupJobs:
    """Read one job group back from ``statusTracker()`` and the status store.

    Waits for the listener bus first, because the status store is filled
    asynchronously. A stage that was skipped (its shuffle output reused) has
    no attempt in the store, and reading it raises; it counts as a stage of
    its job but adds no tasks or bytes.
    """
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    store = jsc.statusStore()
    tracker = sc.statusTracker()
    span_of: dict[int, int | None] = {}
    stages_of: dict[int, list[int]] = {}
    for jid in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        stages_of[jid] = list(info.stageIds)
        desc = store.job(jid).description()
        tag = desc.get() if desc.isDefined() else ""
        span_of[jid] = int(tag[5:]) if tag.startswith("span:") else None
    stage_work: dict[int, tuple[int, int]] = {}
    for sid in {s for st in stages_of.values() for s in st}:
        try:
            data = store.lastStageAttempt(sid)
        except Py4JJavaError:
            continue
        stage_work[sid] = (data.numCompleteTasks(), data.shuffleWriteBytes())
    return GroupJobs(span_of, stages_of, stage_work)
