"""SparkSession factory for standalone jobs.

Tests use the session-scoped ``spark`` fixture from conftest.py; the
``jobs/`` entrypoints (run via ``spark-submit`` or plain ``python``) build
an equivalent session here with the same settings: local master, Arrow
enabled, no automatic broadcast joins (the engines broadcast the vertex
state by explicit hints), modest shuffle parallelism, and PySpark's
per-Column call-site capture off. That capture records the Python call site
of every ``F.*`` call and Column operator for error messages, at about ten
py4j round trips each; it made more than half of a superstep's round trips.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app_name: str = "repro-job") -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
