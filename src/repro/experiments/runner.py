"""Parallel experiment sweep runner with a fingerprinted on-disk cache.

The validator and the per-figure CLIs decompose every experiment into
independent **cells**, one distinct simulation each (see ``cells()`` /
``assemble()`` on the experiment modules).  Most experiments declare
shared job cells (:mod:`repro.experiments.jobcell`), which name a
simulation by its exact ``run_job`` inputs, so experiments that need the
same simulation declare the same cell and a batch holding both runs it
once; the rest keep their own cells and ``run_cell()``.  This module
executes a batch of cells, duplicates merged:

* **serially** (the default, ``jobs=1``) — in-process, no side effects;
* **in parallel** across a :mod:`multiprocessing` pool (``jobs=N``) —
  processes, not threads: the simulator is pure-Python CPU-bound, so
  threads would serialise on the GIL.  Every cell carries its own seed
  and builds a fresh simulator, so results are byte-identical to a
  serial run regardless of completion order;
* **from cache** — each cell result is a plain JSON document stored
  under ``.repro-cache/`` keyed by a SHA-256 fingerprint of the cell's
  full configuration *plus a content hash of the source tree*, so
  re-running ``validate`` after an edit recomputes only what the edit
  could have affected, and an unrelated re-run is pure cache hits.

The cache stores exactly what the cell's ``run_cell`` returned (JSON
round-trips Python floats losslessly), which is what makes warm-cache
results byte-identical to fresh ones — the identity test in
``tests/experiments/test_runner.py`` is the headline guarantee.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.experiments.common import SMALL, Scale

__all__ = ["Cell", "make_cell", "cell_scale", "source_tree_hash",
           "cell_fingerprint", "ResultCache", "SweepStats", "SweepRunner",
           "run_sweep", "run_experiment", "run_experiments",
           "map_parallel", "DEFAULT_CACHE_DIR"]

#: Default cache location, relative to the working directory; override
#: with ``--cache-dir`` or the ``REPRO_CACHE_DIR`` environment variable.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bumped whenever the cell result schema changes incompatibly.
CACHE_SCHEMA = 2

_MISS = object()


@dataclass(frozen=True, order=True)
class Cell:
    """One independently runnable unit of an experiment sweep.

    ``params`` holds the configuration point as a sorted tuple of
    ``(name, value)`` pairs with JSON-representable values, so a cell is
    hashable (dict key), picklable (pool transport), and serialisable
    (cache fingerprint) at once.
    """

    experiment: str
    kind: str
    scale: Tuple[str, int]          # (name, n_nodes)
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def label(self) -> str:
        parts = [f"{k}={_show(v)}" for k, v in self.params]
        inner = " ".join(parts)
        return (f"{self.experiment}/{self.kind}"
                f"[{inner} scale={self.scale[0]} seed={self.seed}]")

    def key(self) -> Dict[str, Any]:
        """JSON-able identity of this cell (fingerprint input)."""
        return {
            "experiment": self.experiment,
            "kind": self.kind,
            "scale": list(self.scale),
            "seed": self.seed,
            "params": [[k, v] for k, v in self.params],
        }


def _show(value: Any) -> str:
    """A parameter as labels print it: a job cell's object form
    ``(class name, ((field, form), ...))`` reads ``Name(field=form ...)``."""
    if isinstance(value, tuple):
        name, items = value
        inner = " ".join(f"{k}={_show(v)}" for k, v in items)
        return f"{name}({inner})"
    return str(value)


def make_cell(experiment: str, kind: str, scale: Scale, seed: int,
              **params: Any) -> Cell:
    """Build a :class:`Cell`, normalising the scale and parameter order."""
    return Cell(experiment=experiment, kind=kind,
                scale=(scale.name, int(scale.n_nodes)), seed=int(seed),
                params=tuple(sorted(params.items())))


def cell_scale(cell: Cell) -> Scale:
    """Reconstruct the :class:`Scale` a cell was declared against."""
    return Scale(cell.scale[0], cell.scale[1])


@lru_cache(maxsize=1)
def source_tree_hash() -> str:
    """Content hash of every ``.py`` file in the installed ``repro`` tree.

    Any source edit — to the engine, a workload, an experiment — changes
    this digest and therefore every cell fingerprint, so stale cached
    results can never survive a code change.  Cached per process; a few
    milliseconds for the ~150-file tree.
    """
    import repro
    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


def cell_fingerprint(cell: Cell, tree_hash: Optional[str] = None) -> str:
    """SHA-256 of the cell's configuration plus the source tree hash."""
    payload = {"schema": CACHE_SCHEMA,
               "tree": tree_hash if tree_hash is not None
               else source_tree_hash(),
               "cell": cell.key()}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class ResultCache:
    """On-disk cell-result store: one JSON file per fingerprint.

    Writes are atomic (temp file + ``os.replace``) so a parallel sweep
    racing on the same cell, or an interrupted run, can never leave a
    torn entry behind.
    """

    def __init__(self, path: str = DEFAULT_CACHE_DIR) -> None:
        self.path = path

    def _file(self, fingerprint: str) -> str:
        return os.path.join(self.path, fingerprint[:2],
                            fingerprint + ".json")

    def get(self, fingerprint: str) -> Any:
        """The cached result, or the module-level ``_MISS`` sentinel."""
        try:
            with open(self._file(fingerprint)) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return _MISS
        if payload.get("schema") != CACHE_SCHEMA:
            return _MISS
        return payload["result"]

    def put(self, fingerprint: str, cell: Cell, result: Any) -> None:
        path = self._file(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump({"schema": CACHE_SCHEMA, "cell": cell.key(),
                       "result": result}, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)


def _execute_cell(cell: Cell) -> Tuple[Cell, Any, float]:
    """Pool worker: resolve the cell's ``run_cell`` and run it.

    Top-level so it pickles under any multiprocessing start method; the
    import is local because the registry imports every experiment module.
    """
    from repro.experiments import registry
    run_cell = registry.cell_runner(cell)
    start = time.perf_counter()
    result = run_cell(cell)
    return cell, result, time.perf_counter() - start


@dataclass
class SweepStats:
    """What one ``run_cells`` batch did, for progress and CI assertions."""

    total: int = 0
    cached: int = 0
    ran: int = 0
    wall_s: float = 0.0

    def summary(self) -> str:
        return (f"sweep summary: total={self.total} cached={self.cached} "
                f"ran={self.ran} wall={self.wall_s:.2f}s")


class SweepRunner:
    """Executes cell batches serially or across a process pool.

    The default construction (``SweepRunner()``) is a pure in-process
    serial executor with no disk side effects — what the experiment
    ``run()`` functions use when no runner is passed, and what keeps the
    test suite hermetic.  The CLIs construct one with ``jobs``/``cache``
    from their flags.
    """

    def __init__(self, jobs: int = 1, cache: bool = False,
                 cache_dir: Optional[str] = None, progress: bool = False,
                 stream=None) -> None:
        self.jobs = max(1, int(jobs))
        cache_dir = cache_dir or os.environ.get("REPRO_CACHE_DIR") \
            or DEFAULT_CACHE_DIR
        self.cache: Optional[ResultCache] = \
            ResultCache(cache_dir) if cache else None
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.stats = SweepStats()

    # -- execution ----------------------------------------------------------

    def run_cells(self, cells: Iterable[Cell]) -> Dict[Cell, Any]:
        """Run (or recall) every cell; returns ``{cell: result}``.

        Duplicate cells are collapsed, so a simulation that several
        experiments declare runs once; the result mapping is keyed by
        the cell itself, so assembly is independent of completion order
        — the property that makes ``--jobs N`` byte-identical to serial.
        """
        ordered: List[Cell] = list(dict.fromkeys(cells))
        batch = SweepStats(total=len(ordered))
        results: Dict[Cell, Any] = {}
        fingerprints: Dict[Cell, str] = {}
        misses: List[Cell] = []

        start = time.perf_counter()
        if self.cache is not None:
            tree = source_tree_hash()
            for cell in ordered:
                fingerprints[cell] = cell_fingerprint(cell, tree)
        for cell in ordered:
            hit = (self.cache.get(fingerprints[cell])
                   if self.cache is not None else _MISS)
            if hit is not _MISS:
                results[cell] = hit
                batch.cached += 1
                self._note(batch, cell, "cached")
            else:
                misses.append(cell)

        for cell, result, elapsed in self._execute(misses):
            results[cell] = result
            batch.ran += 1
            if self.cache is not None:
                self.cache.put(fingerprints[cell], cell, result)
            self._note(batch, cell, f"ran in {elapsed:.2f}s")

        batch.wall_s = time.perf_counter() - start
        self._accumulate(batch)
        if self.progress:
            print(batch.summary(), file=self.stream)
        return results

    def _execute(self, misses: Sequence[Cell]
                 ) -> Iterator[Tuple[Cell, Any, float]]:
        if not misses:
            return
        if self.jobs == 1 or len(misses) == 1:
            for cell in misses:
                yield _execute_cell(cell)
            return
        processes = min(self.jobs, len(misses))
        with multiprocessing.Pool(processes=processes) as pool:
            # imap_unordered: progress lines appear as cells finish; the
            # result dict is keyed by cell, so order cannot leak into
            # the assembled tables.
            for item in pool.imap_unordered(_execute_cell, misses):
                yield item

    # -- bookkeeping --------------------------------------------------------

    def _note(self, batch: SweepStats, cell: Cell, what: str) -> None:
        if self.progress:
            done = batch.cached + batch.ran
            print(f"  [{done}/{batch.total}] {cell.label()} {what}",
                  file=self.stream)

    def _accumulate(self, batch: SweepStats) -> None:
        self.stats.total += batch.total
        self.stats.cached += batch.cached
        self.stats.ran += batch.ran
        self.stats.wall_s += batch.wall_s


def run_sweep(cells: Callable[..., List[Cell]],
              assemble: Callable[..., Any],
              runner: Optional[SweepRunner] = None, **config: Any) -> Any:
    """The body of a celled experiment's ``run()``: its ``cells(**config)``
    through ``runner`` (serial and cacheless by default), assembled with
    the same ``config``."""
    runner = runner if runner is not None else SweepRunner()
    return assemble(runner.run_cells(cells(**config)), **config)


def run_experiments(experiment_ids: Sequence[str], scale: Scale = SMALL,
                    seeds: Sequence[int] = (0,),
                    runner: Optional[SweepRunner] = None
                    ) -> Iterator[Tuple[str, Any]]:
    """Run experiments end to end as **one** sweep batch; yields
    ``(experiment id, result)`` in the order given.

    Every cell-decomposable experiment contributes its cells to one
    batch, so a simulation several experiments declare runs once,
    ``--jobs N`` parallelises across experiments, not just within one,
    and the result cache is consulted per cell.  Each experiment is then
    assembled (table1 and fig08d run directly) and yielded in turn, so
    a caller can print a table before the next one is built.  Passing
    no runner keeps the serial, side-effect-free behaviour."""
    from repro.experiments import registry
    runner = runner if runner is not None else SweepRunner()
    seeds = tuple(seeds)
    celled = [e for e in experiment_ids if registry.supports_cells(e)]
    batch: List[Cell] = []
    for exp_id in celled:
        batch.extend(registry.module(exp_id).cells(scale=scale, seeds=seeds))
    cell_results = runner.run_cells(batch) if celled else {}
    for exp_id in experiment_ids:
        run = registry.get(exp_id)
        if exp_id in celled:
            yield exp_id, registry.module(exp_id).assemble(
                cell_results, scale=scale, seeds=seeds)
        elif exp_id == "table1":
            yield exp_id, run()
        elif exp_id == "fig08d":
            yield exp_id, run(scale=scale, seed=seeds[0])
        else:
            yield exp_id, run(scale=scale, seeds=seeds)


def run_experiment(experiment_id: str, scale: Scale = SMALL,
                   seeds: Sequence[int] = (0,),
                   runner: Optional[SweepRunner] = None):
    """Run one experiment end to end (see :func:`run_experiments`)."""
    (_, result), = run_experiments([experiment_id], scale=scale,
                                   seeds=seeds, runner=runner)
    return result


def map_parallel(fn: Callable[[Any], Any], items: Iterable[Any],
                 jobs: int = 1) -> List[Any]:
    """Order-preserving map across a process pool (serial for jobs<=1).

    The generic fan-out the bench harness shares with the sweep runner:
    ``fn`` must be picklable (a top-level function or a
    ``functools.partial`` over one).
    """
    items = list(items)
    jobs = max(1, int(jobs))
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with multiprocessing.Pool(processes=min(jobs, len(items))) as pool:
        return pool.map(fn, items)
