"""Experiment registry: id → module, for the CLI, validator, and sweep
runner.

Three lookup surfaces:

* :func:`get` — the experiment's top-level ``run`` callable (legacy
  serial entry point; still what ``table1``/``fig08d`` use);
* :func:`module` / :func:`supports_cells` — the module itself, for the
  sweep runner's ``cells()`` / ``assemble()`` protocol;
* :func:`cell_runner` — the ``run_cell`` that computes one cell: the
  shared :mod:`~repro.experiments.jobcell` runner for job cells, the
  declaring experiment's own for the rest.
"""

from __future__ import annotations

from types import ModuleType
from typing import Any, Callable, Dict

from repro.experiments import (
    ablation_memory_resident,
    ablation_spill,
    fig05_input_location,
    fig07_intermediate_lustre,
    fig08_ssd,
    fig09_delay_scheduling,
    fig10_task_locality,
    fig12_load_imbalance,
    fig13_elb,
    fig14_cad,
    fig_shuffle_volume,
    jobcell,
    stream_load,
    table1_config,
)

__all__ = ["EXPERIMENTS", "MODULES", "get", "module", "supports_cells",
           "cell_runner"]

MODULES: Dict[str, ModuleType] = {
    "table1": table1_config,
    "fig05": fig05_input_location,
    "fig07": fig07_intermediate_lustre,
    "fig08": fig08_ssd,
    "fig08d": fig08_ssd,
    "fig09": fig09_delay_scheduling,
    "fig10": fig10_task_locality,
    "fig12": fig12_load_imbalance,
    "fig13": fig13_elb,
    "fig14": fig14_cad,
    # Extras beyond the paper's figures:
    "ablation-mem": ablation_memory_resident,
    "ablation-spill": ablation_spill,
    "shuffle-volume": fig_shuffle_volume,
    "stream-load": stream_load,
}

EXPERIMENTS: Dict[str, Callable] = {
    "table1": table1_config.run,
    "fig05": fig05_input_location.run,
    "fig07": fig07_intermediate_lustre.run,
    "fig08": fig08_ssd.run,
    "fig08d": fig08_ssd.run_task_trace,
    "fig09": fig09_delay_scheduling.run,
    "fig10": fig10_task_locality.run,
    "fig12": fig12_load_imbalance.run,
    "fig13": fig13_elb.run,
    "fig14": fig14_cad.run,
    # Extras beyond the paper's figures:
    "ablation-mem": ablation_memory_resident.run,
    "ablation-spill": ablation_spill.run,
    "shuffle-volume": fig_shuffle_volume.run,
    "stream-load": stream_load.run,
}


def get(experiment_id: str) -> Callable:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def module(experiment_id: str) -> ModuleType:
    """The module implementing ``experiment_id`` (KeyError like get)."""
    try:
        return MODULES[experiment_id]
    except KeyError:
        known = ", ".join(sorted(MODULES))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def supports_cells(experiment_id: str) -> bool:
    """Whether the experiment decomposes into sweep-runner cells.

    ``fig08d`` shares a module with ``fig08`` but is a single task-trace
    run with its own entry point, so it is not cell-decomposed.
    """
    if experiment_id == "fig08d":
        return False
    return hasattr(module(experiment_id), "cells")


def cell_runner(cell) -> Callable[[Any], Any]:
    """The ``run_cell`` that computes ``cell`` (KeyError like module)."""
    if cell.experiment == jobcell.EXPERIMENT:
        return jobcell.run_cell
    return module(cell.experiment).run_cell
