"""The project's one SparkSession factory, and the settings it applies.

The ``jobs/`` entrypoints (run via ``spark-submit`` or plain ``python``),
the benchmark and the tests' session-scoped ``spark`` fixture all build
their session with :func:`get_spark`, which applies ``SETTINGS``:

* Arrow moves pandas frames in and out of Spark.
* An uploaded frame becomes an RDD of Arrow batches behind one ``LogicalRDD``
  leaf (``localRelationThreshold = 0``), never a ``LocalRelation``, which
  holds every row inside the logical plan. Catalyst walks a plan's rows again
  in every query built on it, so with the edge list in the plan, analysis
  and planning of each superstep and BFS level grew with |E|. The same holds
  for the per-superstep vertex state and the BFS frontier.
* No automatic broadcast joins: the engines broadcast the vertex state by
  explicit hints.
* Adaptive execution is off. The superstep and RRG plans have no shuffle and
  every broadcast is an explicit hint, so it had nothing to adapt; it only
  re-planned between their broadcast stages.
* No shuffle parallelism is set. The only shuffle of the program is ingest's
  ``repartition`` of the edges by ``dst``, which names its own partition
  count.
* PySpark's per-Column call-site capture is off. That capture records the
  Python call site of every ``F.*`` call and Column operator for error
  messages, at about ten py4j round trips each; it made more than half of a
  superstep's round trips. It is a static setting, read when the session is
  created.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

#: Settings of every session of the project (see the module docstring).
SETTINGS = {
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.execution.arrow.localRelationThreshold": "0",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.adaptive.enabled": "false",
    "spark.python.sql.dataFrameDebugging.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}


def get_spark(app_name: str = "repro-job") -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    spark = SparkSession.builder.appName(app_name).config(map=SETTINGS).getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark
