"""DAG analysis: split an RDD lineage into stages at shuffle boundaries.

Spark builds a DAG of stages when an action fires (§II-C): narrow
transformations pipeline into one stage; every shuffle dependency starts
a new stage.  The local backend does not need explicit stages to compute
correctly (its pull-based evaluation materialises shuffles on demand),
but the plan is how users — and the workload-shape tests — verify
that e.g. GroupBy compiles to the paper's Fig 4(a) shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.rdd import RDD, ShuffledRDD

__all__ = ["Stage", "ExecutionPlan", "execution_plan"]


@dataclass
class Stage:
    """A pipelined chain of narrow transformations."""

    stage_id: int
    rdds: List[RDD] = field(default_factory=list)
    #: Stages whose shuffle output this stage consumes.
    parent_stages: List["Stage"] = field(default_factory=list)
    #: The shuffle this stage ends in, if it is a map-side stage.
    shuffle: Optional[ShuffledRDD] = None

    @property
    def is_shuffle_map_stage(self) -> bool:
        return self.shuffle is not None

    @property
    def num_tasks(self) -> int:
        if not self.rdds:
            return 0
        return self.rdds[0].num_partitions


@dataclass
class ExecutionPlan:
    """All stages of one action, in execution order."""

    stages: List[Stage]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_shuffles(self) -> int:
        return sum(1 for s in self.stages if s.is_shuffle_map_stage)

    def describe(self) -> str:
        lines = []
        for s in self.stages:
            kind = "shuffle-map" if s.is_shuffle_map_stage else "result"
            ops = ",".join(getattr(r, "op_name", type(r).__name__)
                           for r in reversed(s.rdds))
            deps = ",".join(str(p.stage_id) for p in s.parent_stages)
            lines.append(f"stage {s.stage_id} [{kind}] "
                         f"tasks={s.num_tasks} deps=[{deps}] ops={ops}")
        return "\n".join(lines)


def execution_plan(rdd: RDD) -> ExecutionPlan:
    """Build the stage DAG for an action on ``rdd``."""
    stages: List[Stage] = []
    # Memoise the map-side stage of every shuffle so diamond lineages
    # share parents rather than duplicating stages.
    shuffle_stage: Dict[int, Stage] = {}

    def build(final_rdd: RDD, shuffle: Optional[ShuffledRDD]) -> Stage:
        stage = Stage(stage_id=len(stages), shuffle=shuffle)
        stages.append(stage)
        frontier = [final_rdd]
        seen: Set[int] = set()
        while frontier:
            r = frontier.pop()
            if r.rdd_id in seen:
                continue
            seen.add(r.rdd_id)
            stage.rdds.append(r)
            if isinstance(r, ShuffledRDD):
                parent = shuffle_stage.get(r.rdd_id)
                if parent is None:
                    parent = build(r.parents[0], shuffle=r)
                    shuffle_stage[r.rdd_id] = parent
                stage.parent_stages.append(parent)
            else:
                frontier.extend(r.parents)
        return stage

    build(rdd, shuffle=None)
    # Execution order: parents before children (reverse creation works
    # because build() recurses depth-first into parents).
    ordered = sorted(stages, key=lambda s: -s.stage_id)
    for i, s in enumerate(ordered):
        s.stage_id = i
    return ExecutionPlan(stages=ordered)
