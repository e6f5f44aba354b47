"""Shuffle-fetch paths, byte-identical to pinned fingerprints.

``tests/data/fingerprints_fetch_paths.json`` was captured by
``tools/capture_fingerprints.py fetch-paths`` on the generator-process
fetch path (one process per reducer–source slice), before the
callback-driven fetch pump replaced it.  The nine mechanisms-off cases
of ``test_mechanism_identity.py`` never park a reader on an availability
gate, orphan a reducer body, launch a backup fetch, fail a fetch
attempt, shuffle per round, spill around a fetch, or fetch Lustre-local
under ELB; these cases do, and must replay byte for byte.
"""

import json

import pytest

from tests.core.test_mechanism_identity import _REPO, _capture_module

_DATA = _REPO / "tests" / "data" / "fingerprints_fetch_paths.json"
_CAP = _capture_module()


@pytest.fixture(scope="module")
def pinned():
    with open(_DATA) as fh:
        return json.load(fh)


def test_pins_cover_all_cases(pinned):
    assert set(pinned) == {label for label, _, _ in _CAP.FETCH_PATH_CASES}


@pytest.mark.parametrize(
    "label,spec_fn,opt_fn", _CAP.FETCH_PATH_CASES,
    ids=[label for label, _, _ in _CAP.FETCH_PATH_CASES])
def test_fetch_path_is_byte_identical(label, spec_fn, opt_fn, pinned):
    from repro.cluster.spec import hyperion
    from repro.core.engine import run_job
    res = run_job(spec_fn(), cluster_spec=hyperion(_CAP.N_NODES),
                  options=opt_fn())
    got = json.loads(json.dumps(_CAP.fingerprint(res)))
    assert got == pinned[label], (
        f"{label}: fetch path diverged from its pinned fingerprint "
        f"(job_time {got['job_time']!r} vs {pinned[label]['job_time']!r})")
