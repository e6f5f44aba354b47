"""The paper's subject system: a memory-resident MapReduce engine.

Two execution backends share one job model:

* :class:`~repro.core.local.LocalContext` — really executes the RDD
  programs of the workloads and examples (map/flat_map/filter,
  group_by_key/reduce_by_key, cache) on in-memory Python data; the
  workload-shape tests run them to check each ``JobSpec``.
* :class:`~repro.core.engine.SparkSim` — executes a
  :class:`~repro.core.jobspec.JobSpec` on a simulated
  :class:`~repro.cluster.Cluster`, reproducing the paper's scheduling,
  shuffle, and storage behaviour, including the two optimizations:
  :class:`~repro.core.elb.EnhancedLoadBalancer` and
  :class:`~repro.core.cad.CongestionAwareDispatcher`.
"""

from repro.core.faults import (ExecutorLoss, FaultPlan, NodeCrash,
                               ShuffleOutputLoss, StorageDegradation)
from repro.core.jobspec import JobSpec
from repro.core.memory import (ClusterMemory, MemoryConfig, MemoryGate,
                               SpillCurve)
from repro.core.metrics import (FailureRecord, JobResult, MemoryMetrics,
                                PhaseMetrics, RecoveryMetrics, TaskRecord)
from repro.core.engine import EngineOptions, SparkSim, run_job
from repro.core.rdd import RDD
from repro.core.local import LocalContext

__all__ = [
    "ClusterMemory",
    "EngineOptions",
    "ExecutorLoss",
    "FailureRecord",
    "FaultPlan",
    "JobResult",
    "JobSpec",
    "LocalContext",
    "MemoryConfig",
    "MemoryGate",
    "MemoryMetrics",
    "NodeCrash",
    "PhaseMetrics",
    "RDD",
    "RecoveryMetrics",
    "ShuffleOutputLoss",
    "SparkSim",
    "SpillCurve",
    "StorageDegradation",
    "TaskRecord",
    "run_job",
]
