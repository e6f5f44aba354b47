"""The benchmark's workloads, and the child process that runs one of them.

``run.py`` starts this file as a fresh interpreter for every measured
iteration::

    python perfbench/workloads.py prepare
    python perfbench/workloads.py run|trace WORKLOAD SEED

``prepare`` compiles ``src/repro`` to bytecode and builds the C kernels,
so no later child pays for either.  ``run`` imports what the workload
needs, prints ``ready`` (the parent's set-up clock stops there), runs
the workload once through public entry points only, and prints one JSON
result line.  ``trace`` runs under cProfile and adds the layer split.
Importing this module imports nothing from ``repro``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Output files of the CLI workloads, relative to the checkout root (the
#: children's working directory), so the printed paths digest the same
#: in every checkout.
OUT_DIR = os.path.join(".bench_build", "out")

GB = 1024.0 ** 3
MB = 1024.0 ** 2

# Workload shapes.  paper_job keeps the paper's 1.5 TB-on-100-nodes data
# per node (15.36 GB) on 48 nodes: host time grows with the square of
# the node count (every reducer fetches from every node), and at 48
# nodes an iteration takes about 4 s, so a 20 s run holds four.
PAPER_JOB = ["--workload", "groupby", "--nodes", "48", "--data-gb", "737",
             "--store", "ssd", "--elb", "--cad"]
EXPLAIN_JOB = ["--workload", "groupby", "--nodes", "32", "--data-gb", "491",
               "--store", "ssd", "--elb", "--cad"]
SERVE_STREAM = ["--nodes", "8", "--jobs", "48", "--base-gb", "4",
                "--tenants", "etl:2,adhoc:1:0.5", "--policy", "fair",
                "--seed", "0"]
CLAIMS = 15
FABRIC_NODES, FABRIC_FAN, FABRIC_WINDOW = 1010, 12, 2


def _flag(argv: List[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _digests(stdout: str, **files: bytes) -> Dict[str, str]:
    """SHA-256 of what one iteration printed and wrote."""
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in {"stdout": stdout.encode(), **files}.items()}


def _capture(call: Callable[[], object]) -> Tuple[object, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        value = call()
    return value, buf.getvalue()


def _cli_job(command: str, shape: List[str]):
    """A ``repro run``/``repro explain`` job; checks its ``--json``."""
    from repro.cli import main

    def call(seed: int) -> Dict[str, str]:
        path = os.path.join(OUT_DIR, f"{command}_job.json")
        code, stdout = _capture(lambda: main(
            [command, *shape, "--seed", str(seed), "--json", path]))
        if code != 0:
            raise RuntimeError(f"repro {command} exited {code}")
        with open(path, "rb") as fh:
            data = fh.read()
        _check_job(json.loads(data), float(_flag(shape, "--data-gb")))
        return _digests(stdout, json=data)
    return call


def _check_job(job: dict, data_gb: float) -> None:
    phases = job["phases"]
    if sorted(phases) != ["compute", "fetch", "store"]:
        raise AssertionError(f"unexpected phases {sorted(phases)}")
    tasks = job["tasks"]
    by_phase = {name: [t for t in tasks if t["phase"] == name]
                for name in phases}
    for name, ph in phases.items():
        if len(by_phase[name]) != ph["n_tasks"] or not ph["n_tasks"]:
            raise AssertionError(f"{name}: {len(by_phase[name])} task "
                                 f"records for {ph['n_tasks']} tasks")
    read = sum(t["bytes"] for t in by_phase["compute"])
    if abs(read - data_gb * GB) > 1e-9 * data_gb * GB:
        raise AssertionError(f"compute read {read / GB:.3f} GB of "
                             f"{data_gb} GB")
    for t in tasks:
        if not (t["queued_at"] <= t["started_at"] <= t["finished_at"]
                <= job["job_time"] + 1e-9):
            raise AssertionError(f"task times out of order: {t}")


def _claims_sweep():
    from repro.experiments.__main__ import main

    def call(seed: int) -> Dict[str, str]:
        # Exit code 1 means a claim did not reproduce at this seed: an
        # outcome the report (and its digest) records, not an error.
        code, stdout = _capture(lambda: main(
            ["validate", "--no-cache", "--no-progress", "--jobs", "1",
             "--seeds", str(seed)]))
        verdicts = [ln for ln in stdout.splitlines()
                    if ln.startswith(("[PASS]", "[FAIL]"))]
        passed = sum(ln.startswith("[PASS]") for ln in verdicts)
        if len(verdicts) != CLAIMS or code != (0 if passed == CLAIMS else 1) \
                or f"{passed}/{CLAIMS} claims reproduced" not in stdout:
            raise AssertionError(f"malformed claims report (exit {code})")
        return _digests(stdout)
    return call


def _serve_stream():
    """A fixed 48-job trace (stream seed 0) at an offered load the seed
    picks, 0.27-0.33 jobs/s.  Drawing the job mix from the seed instead
    would change the amount of work by a quarter between seeds."""
    from repro.cli import main

    def call(seed: int) -> Dict[str, str]:
        path = os.path.join(OUT_DIR, "serve_stream.json")
        rate = 0.27 + 0.06 * random.Random(seed).random()
        code, stdout = _capture(lambda: main(
            ["serve", *SERVE_STREAM, "--arrival-rate", f"{rate:.4f}",
             "--json", path]))
        if code != 0:
            raise RuntimeError(f"repro serve exited {code}")
        with open(path, "rb") as fh:
            data = fh.read()
        result = json.loads(data)
        outcomes = result["outcomes"]
        jobs = int(_flag(SERVE_STREAM, "--jobs"))
        if len(outcomes) != jobs or result["n_jobs"] != jobs:
            raise AssertionError(f"{len(outcomes)} outcomes for {jobs} jobs")
        for o in outcomes:
            if not (o["arrived_at"] <= o["first_grant_at"] <= o["finished_at"]
                    <= result["makespan"] + 1e-9):
                raise AssertionError(f"job times out of order: {o}")
        return _digests(stdout, json=data)
    return call


def _fabric_wave_10x():
    """A reduce-side shuffle wave on a 1,010-node fabric, driven through
    ``Fabric.transfer`` only: each reducer pulls from ``FABRIC_FAN``
    senders, ``FABRIC_WINDOW`` fetches at a time.  The seed picks the
    sender stride and each flow's size jitter; 1,009 is prime, so every
    stride gives distinct senders."""
    from repro.net import Fabric
    from repro.sim import Simulator

    def call(seed: int) -> Dict[str, str]:
        rng = random.Random(seed)
        n = FABRIC_NODES
        stride = rng.randrange(1, n - 1)
        sim = Simulator()
        fab = Fabric(sim, n_nodes=n, nic_bw=4 * GB, latency=20e-6)
        completions: List[Tuple[int, int, float]] = []
        sent = [0.0]

        def issue(reducer: int, pending: List[Tuple[int, float]]) -> None:
            if not pending:
                return
            sender, size = pending.pop()
            sent[0] += size
            fab.transfer(sender, reducer, size).add_callback(
                lambda ev: (completions.append((sender, reducer, sim.now)),
                            issue(reducer, pending)))

        for reducer in range(n):
            pending = [((reducer + 1 + k * stride % (n - 1)) % n,
                        12 * MB + rng.randrange(4096) * 1024.0)
                       for k in range(FABRIC_FAN)]
            for _ in range(FABRIC_WINDOW):
                issue(reducer, pending)
        sim.run()
        if len(completions) != n * FABRIC_FAN or len(set(
                (s, r) for s, r, _ in completions)) != n * FABRIC_FAN:
            raise AssertionError(f"{len(completions)} distinct completions "
                                 f"for {n * FABRIC_FAN} flows")
        if abs(fab.bytes_completed - sent[0]) > 1e-9 * sent[0]:
            raise AssertionError(f"fabric moved {fab.bytes_completed} of "
                                 f"{sent[0]} bytes")
        return _digests(json.dumps({"completions": completions,
                                    "bytes": fab.bytes_completed}))
    return call


#: Workload name -> factory; the factory does the imports (set-up) and
#: returns ``call(seed) -> digests`` (the timed part).
WORKLOADS: Dict[str, Callable[[], Callable[[int], Dict[str, str]]]] = {
    "paper_job": lambda: _cli_job("run", PAPER_JOB),
    "claims_sweep": _claims_sweep,
    "fabric_wave_10x": _fabric_wave_10x,
    "serve_stream": _serve_stream,
    "explain_job": lambda: _cli_job("explain", EXPLAIN_JOB),
}


def kernel_mode() -> str:
    from repro.net import fastalloc
    from repro.sim import fastdrain
    return "c" if fastalloc.AVAILABLE and fastdrain.AVAILABLE else "numpy"


def profile(call: Callable[[], object]) -> Tuple[object, float, dict]:
    """Run ``call`` under cProfile; returns its value, the traced wall
    time, and the layer split with the exact counts.  ``Simulator.run``
    is wrapped meanwhile to sum ``events_dispatched`` over every run,
    read as each returns."""
    import cProfile
    import pstats
    from layers import LayerMap, attribute, counted_calls
    from repro.sim import Simulator
    events = [0]
    run = Simulator.run

    def counted_run(self, until=None):
        before = self.events_dispatched
        try:
            return run(self, until)
        finally:
            events[0] += self.events_dispatched - before

    Simulator.run = counted_run
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        value = call()
    finally:
        profiler.disable()
        Simulator.run = run
    wall = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats
    return value, wall, {"layers": attribute(stats, LayerMap(SRC, HERE)),
                         "events": events[0], **counted_calls(stats)}


def child(argv: List[str]) -> int:
    """Entry point of the child interpreter (see the module docstring)."""
    emit = sys.stdout
    if argv == ["prepare"]:
        import compileall
        import numpy
        compileall.compile_dir(os.path.join(SRC, "repro"), quiet=2)
        emit.write(json.dumps({
            "kernel_mode": kernel_mode(), "numpy": numpy.__version__,
            "python": sys.version.split()[0]}) + "\n")
        return 0
    mode, name, seed = argv[0], argv[1], int(argv[2])
    call = WORKLOADS[name]()
    kernel_mode()
    emit.write("ready\n")
    emit.flush()
    os.makedirs(OUT_DIR, exist_ok=True)
    result: Dict[str, object] = {}
    try:
        if mode == "trace":
            digests, wall, result["trace"] = profile(lambda: call(seed))
        else:
            start = time.perf_counter()
            digests = call(seed)
            wall = time.perf_counter() - start
        result.update(wall_s=wall, digests=digests)
    except Exception as exc:  # reported to the parent as a failed iteration
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit.write(json.dumps(result) + "\n")
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(child(sys.argv[1:]))
