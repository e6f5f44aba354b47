"""Loader for the simulator's optional compiled C kernels.

:func:`load_kernel` builds and loads the C source behind
:mod:`repro.sim.fastdrain` and :mod:`repro.net.fastalloc`, and returns
``None`` (leaving the vectorized NumPy path in charge) when no C
compiler is found, the build fails, or ``REPRO_NO_CKERNEL=1`` is set.
Both paths produce bit-identical simulation results: a missing compiler
changes speed, never output.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Callable, Optional

__all__ = ["load_kernel"]

# Strict IEEE-754 only: never -ffast-math, and -ffp-contract=off so FMA
# contraction cannot change rounding vs. the NumPy fallbacks.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]


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
