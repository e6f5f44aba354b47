"""Global switch between the optimized and reference engine paths.

The simulation kernel keeps two implementations of its measured hot
paths: the optimized one (amortized flow-state arrays, lightweight
timer heap entries, cached fair-share orders) and the original
reference one.  Both follow the same determinism contract — events at
equal timestamps run in (priority, FIFO) order — and must produce
byte-identical simulation results; ``repro bench --check`` asserts
this on every benchmark scenario.

The mode is a process-global flag consulted at call time.  It must not
be flipped in the middle of a simulation: objects built in one mode
may carry state the other path does not maintain.  Flip it only
between fresh :class:`~repro.sim.core.Simulator` instances, ideally
through the :func:`reference_mode` context manager.

The optimized paths also use compiled C kernels when they can:
:func:`load_kernel` builds and loads one for :mod:`repro.sim.fastdrain`
and :mod:`repro.net.fastalloc`, and returns ``None`` (leaving the
vectorized NumPy path in charge) when no C compiler is found, the build
fails, or ``REPRO_NO_CKERNEL=1`` is set.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = ["is_reference", "set_reference", "reference_mode",
           "load_kernel"]

# Strict IEEE-754 only: never -ffast-math, and -ffp-contract=off so FMA
# contraction cannot change rounding vs. the NumPy/Python references.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

#: True while the retained (pre-optimization) code paths are active.
REFERENCE = False


def is_reference() -> bool:
    """Whether the reference (pre-optimization) paths are active."""
    return REFERENCE


def set_reference(flag: bool) -> None:
    """Select the reference (True) or optimized (False) engine paths."""
    global REFERENCE
    REFERENCE = bool(flag)


@contextmanager
def reference_mode() -> Iterator[None]:
    """Run a block under the reference engine paths, then restore."""
    global REFERENCE
    prev = REFERENCE
    REFERENCE = True
    try:
        yield
    finally:
        REFERENCE = prev


def load_kernel(src: str, name: str,
                bind: Callable[[ctypes.CDLL], None]) -> Optional[ctypes.CDLL]:
    """Compile (or reuse) the C source ``src`` and load it, or ``None``.

    The shared object is cached by source hash as
    ``<tmp>/repro-<name>-<uid>/_<name>-<hash>.so``, so each machine
    builds a kernel once.  ``bind`` declares the ``argtypes`` and
    ``restype`` of every entry point; a missing symbol fails the load.
    """
    if os.environ.get("REPRO_NO_CKERNEL") == "1":
        return None
    try:
        with open(src, "rb") as fh:
            tag = hashlib.sha256(fh.read()).hexdigest()[:16]
        cache = os.path.join(tempfile.gettempdir(),
                             f"repro-{name}-{os.getuid()}")
        os.makedirs(cache, exist_ok=True)
        so_path = os.path.join(cache, f"_{name}-{tag}.so")
        if not os.path.exists(so_path):
            tmp = f"{so_path}.tmp.{os.getpid()}"
            subprocess.run(["cc", *_CFLAGS, "-o", tmp, src],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, so_path)  # atomic: concurrent builds race safely
        lib = ctypes.CDLL(so_path)
        bind(lib)
        return lib
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
