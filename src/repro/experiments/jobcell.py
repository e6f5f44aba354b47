"""Job cells: one sweep cell per distinct simulation.

A job cell names one ``run_job`` call by its exact inputs — the
:class:`~repro.core.jobspec.JobSpec`, the
:class:`~repro.cluster.spec.ClusterSpec`, the
:class:`~repro.core.engine.EngineOptions` (with its ``SparkConf`` and
seed) and the speed model's class and parameters — instead of by an
experiment's own coordinates.  Every experiment that needs a simulation
declares the same cell for it, so the sweep runner's duplicate merge runs
it once, in a serial sweep, across ``--jobs N`` workers and in the
on-disk cache alike.

Each input is held in a canonical form that is hashable and JSON-safe:
``None``, booleans, numbers and strings stand for themselves, and an
object becomes ``(class name, ((field, form), ...))`` listing only the
fields that differ from the class defaults.  Two inputs of one class are
equal exactly when they differ from the defaults in the same fields by
the same values, so two cells are equal exactly when their ``run_job``
inputs are; :func:`run_cell` rebuilds the inputs from the forms alone.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.cluster.variability import (ConstantSpeed, LognormalSpeed,
                                       SpeedModel, UniformSpeed)
from repro.config import SparkConf
from repro.core.engine import EngineOptions, run_job
from repro.core.jobspec import JobSpec
from repro.core.memory import MemoryConfig
from repro.experiments.common import Scale
from repro.experiments.runner import Cell
from repro.storage.device import DeviceFullError

__all__ = ["EXPERIMENT", "job_cell", "job_inputs", "run_cell",
           "median_run"]

#: ``Cell.experiment`` of every job cell: no single experiment owns one.
EXPERIMENT = "job"

#: The classes a job cell's inputs may hold, by name.
_CLASSES = {cls.__name__: cls for cls in (
    JobSpec, ClusterSpec, NodeSpec, EngineOptions, SparkConf, MemoryConfig,
    ConstantSpeed, UniformSpeed, LognormalSpeed)}


def _fields(value: Any) -> Dict[str, Any]:
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    return vars(value)  # speed models store their constructor arguments


@lru_cache(maxsize=None)
def _defaults(cls: type) -> Dict[str, Any]:
    return _fields(cls())


def _canon(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    cls = type(value)
    if _CLASSES.get(cls.__name__) is not cls:
        raise TypeError(f"a job cell cannot hold a {cls.__name__} input")
    base = _defaults(cls)
    return (cls.__name__, tuple((name, _canon(v))
                                for name, v in _fields(value).items()
                                if v != base[name]))


def _build(form: Any) -> Any:
    if not isinstance(form, tuple):
        return form
    name, items = form
    return _CLASSES[name](**{k: _build(v) for k, v in items})


def job_cell(spec: JobSpec, cluster: Union[Scale, ClusterSpec],
             options: Optional[EngineOptions] = None,
             speed_model: Optional[SpeedModel] = None) -> Cell:
    """The cell for ``run_job(spec, cluster, options, speed_model)``;
    a :class:`Scale` stands for its ``cluster()``."""
    if isinstance(cluster, Scale):
        cluster = cluster.cluster()
    options = options if options is not None else EngineOptions()
    return Cell(experiment=EXPERIMENT, kind=spec.name,
                scale=("nodes", cluster.n_nodes), seed=options.seed,
                params=(("cluster", _canon(cluster)),
                        ("options", _canon(options)),
                        ("spec", _canon(spec)),
                        ("speed", _canon(speed_model))))


def job_inputs(cell: Cell) -> Tuple[JobSpec, ClusterSpec, EngineOptions,
                                    Optional[SpeedModel]]:
    """``(spec, cluster_spec, options, speed_model)`` rebuilt from a cell."""
    p = cell.params_dict
    return (_build(p["spec"]), _build(p["cluster"]), _build(p["options"]),
            _build(p["speed"]))


def run_cell(cell: Cell) -> Dict[str, object]:
    """Run the cell's job once; the summary every consumer reads.

    ``ok`` is False when the intermediate data does not fit its device
    (``DeviceFullError``); otherwise the job and phase times follow, and
    ``task_spread`` (Fig 8(c)) when the job has a storing phase.
    """
    spec, cluster_spec, options, speed_model = job_inputs(cell)
    try:
        res = run_job(spec, cluster_spec=cluster_spec, options=options,
                      speed_model=speed_model)
    except DeviceFullError:
        return {"ok": False}
    summary: Dict[str, object] = {
        "ok": True, "job_time": res.job_time,
        "compute_time": res.compute_time, "store_time": res.store_time,
        "fetch_time": res.fetch_time}
    store = res.phases.get("store")
    if store is not None:
        summary["task_spread"] = store.min_max_spread()
    return summary


def median_run(runs: Sequence[Dict[str, object]]
               ) -> Optional[Dict[str, object]]:
    """The median finished run by job time (the upper middle of an even
    count); ``None`` when no run finished."""
    ok = [r for r in runs if r["ok"]]
    if not ok:
        return None
    return sorted(ok, key=lambda r: r["job_time"])[len(ok) // 2]
