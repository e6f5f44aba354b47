"""Map host time and calls in a cProfile run onto the simulator's layers.

Every function in ``src/repro`` belongs to one layer, chosen by its
module (``LAYERS``); benchmark code is the ``perfbench`` layer.  Functions
outside both (builtins, the standard library, NumPy, the ctypes kernels)
have no layer of their own: their self time goes to the layers that
called them, split by cProfile's per-caller times, so the layer shares
of a profile always sum to 1.  ``calls_in`` counts direct calls into a
layer's functions from another layer's functions; a call that reaches
a layer through a builtin (a ``sorted`` key, an import) is not a
crossing.  Call counts repeat exactly for a deterministic run, times do
not.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict, Optional, Tuple

#: Layer -> the modules it owns.  ``pkg.*`` covers a package and all of
#: its submodules; anything else names one module (a package name means
#: its ``__init__``).  Each ``src/repro`` module matches exactly one
#: entry, which ``test_benchmark.py`` checks.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.core": ("repro.sim", "repro.sim.core", "repro.sim.events",
                 "repro.sim.process", "repro.sim.resources",
                 "repro.sim.simtime", "repro.sim.trace", "repro.sim.rng",
                 "repro.sim.perfmode"),
    "sim.fluid": ("repro.sim.fluid", "repro.sim.fastdrain"),
    "net.fabric": ("repro.net.*", "repro.sim.flowarray"),
    "storage": ("repro.storage.*", "repro.lustre.*", "repro.hdfs.*"),
    "core.scheduler": ("repro.core.scheduler", "repro.core.task",
                       "repro.core.speculation"),
    "core.policies": ("repro.core.policies", "repro.core.elb",
                      "repro.core.cad", "repro.core.volumes",
                      "repro.core.memory"),
    "core.engine": ("repro.core", "repro.core.engine", "repro.core.shuffle",
                    "repro.core.combine", "repro.core.rdd", "repro.core.dag",
                    "repro.core.jobspec", "repro.core.metrics",
                    "repro.core.faults", "repro.core.local",
                    "repro.cluster.*", "repro.workloads.*", "repro.config"),
    "serve": ("repro.serve.*",),
    "obs": ("repro.obs.*",),
    # analysis/* renders results (tables, CDFs, the gantt and --json
    # exports), so ``obs`` holds telemetry alone and its share of a
    # telemetry-off run checks that telemetry costs nothing when off.
    "experiments": ("repro", "repro.experiments.*", "repro.cli",
                    "repro.__main__", "repro.bench.*", "repro.analysis.*"),
}
BENCH = "perfbench"
#: Every layer a profile is split into, in report order.
ALL_LAYERS = (*LAYERS, BENCH)

#: Count metric -> the function whose calls it counts in the profile.
COUNTED = {
    "sim.fluid.transfers": ("repro.sim.fluid", "FluidPipe.transfer"),
    "net.fabric.transfers": ("repro.net.fabric", "Fabric.transfer"),
    "core.scheduler.stages": ("repro.core.scheduler", "StageRunner.run"),
    "core.engine.jobs": ("repro.core.engine", "SparkSim.__init__"),
}
#: Per-layer metrics a traced run prints, as (name, unit).
SINGLE_METRICS = (
    ("sim.core.events", "count"),
    ("sim.core.events_per_s", "1/s"),
    *((name, "count") for name in COUNTED),
    ("trace.overhead_x", "ratio"),
)


def metric_names() -> Tuple[Tuple[str, str], ...]:
    """Every per-layer metric, as (name, unit), in report order."""
    per_layer = tuple((f"{layer}.{kind}", unit) for layer in ALL_LAYERS
                      for kind, unit in (("share", "ratio"),
                                         ("calls_in", "count")))
    return per_layer + SINGLE_METRICS


def _matches(pattern: str, module: str) -> bool:
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return module == package or module.startswith(package + ".")
    return module == pattern


def module_layer(module: str) -> str:
    """The layer that owns ``module``; an unmapped or doubly mapped
    ``repro`` module is an error naming it."""
    owners = [layer for layer, patterns in LAYERS.items()
              if any(_matches(p, module) for p in patterns)]
    if len(owners) != 1:
        why = "is not in" if not owners else f"is in {owners} of"
        raise LookupError(f"module {module!r} {why} the perfbench layer map")
    return owners[0]


class LayerMap:
    """Classifies profiled functions by file: repro module, benchmark
    code, or neither (``None``)."""

    def __init__(self, src_dir: str, bench_dir: str) -> None:
        self.src_dir = os.path.realpath(src_dir)
        self.bench_dir = os.path.realpath(bench_dir)
        self._cache: Dict[str, Optional[str]] = {}

    def file_layer(self, filename: str) -> Optional[str]:
        try:
            return self._cache[filename]
        except KeyError:
            pass
        path = os.path.realpath(filename) if filename[:1] not in "~<" else ""
        layer: Optional[str] = None
        if path.startswith(os.path.join(self.src_dir, "repro") + os.sep):
            module = os.path.splitext(
                os.path.relpath(path, self.src_dir))[0].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[:-len(".__init__")]
            layer = module_layer(module)
        elif path.startswith(self.bench_dir + os.sep):
            layer = BENCH
        self._cache[filename] = layer
        return layer


def attribute(stats: dict, layers: LayerMap) -> Dict[str, Dict[str, float]]:
    """Split a ``pstats.Stats(...).stats`` table across layers.

    Returns ``{layer: {"self_s": s, "share": f, "calls_in": n}}`` for
    every layer in :data:`ALL_LAYERS`.
    """
    own = {func: layers.file_layer(func[0]) for func in stats}
    memo: Dict[tuple, Dict[str, float]] = {}

    def spread(func) -> Dict[str, float]:
        """How a layerless function's time divides over the layers that
        called it: by per-caller time, or by calls when that is 0."""
        if func not in memo:
            memo[func] = {}  # a call cycle back into ``func`` adds nothing
            edges = [(caller, edge) for caller, edge
                     in stats[func][4].items() if caller in stats]
            weights = [edge[2] for _, edge in edges]
            if not sum(weights):
                weights = [edge[0] for _, edge in edges]
            out: Dict[str, float] = {}
            for (caller, _), weight in zip(edges, weights):
                dist = ({own[caller]: 1.0} if own[caller]
                        else spread(caller))
                for layer, frac in dist.items():
                    out[layer] = out.get(layer, 0.0) + weight * frac
            norm = sum(out.values())
            memo[func] = ({layer: frac / norm for layer, frac in out.items()}
                          if norm > 0 else {BENCH: 1.0})
        return memo[func]

    self_s = dict.fromkeys(ALL_LAYERS, 0.0)
    calls_in = dict.fromkeys(ALL_LAYERS, 0)
    for func, (_, _, tt, _, callers) in stats.items():
        home = own[func]
        if not home:
            for layer, frac in spread(func).items():
                self_s[layer] += tt * frac
            continue
        self_s[home] += tt
        calls_in[home] += sum(edge[0] for caller, edge in callers.items()
                              if own.get(caller) not in (None, home))
    total = sum(self_s.values())
    return {layer: {"self_s": self_s[layer],
                    "share": self_s[layer] / total if total > 0 else 0.0,
                    "calls_in": calls_in[layer]}
            for layer in ALL_LAYERS}


def counted_calls(stats: dict) -> Dict[str, int]:
    """``COUNTED`` metric -> exact call count in ``stats``."""
    out = {}
    for name, (module, qualname) in COUNTED.items():
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
        row = stats.get((code.co_filename, code.co_firstlineno,
                         code.co_name))
        out[name] = row[1] if row else 0
    return out
