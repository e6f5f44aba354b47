"""Explainer outputs, byte-identical to pinned goldens.

``tests/data/explain_golden/`` was captured by
``tools/capture_fingerprints.py explain`` on the tree where the span
fold kept one wait edge per decline, the audit was a list of records
and ``--json`` was built as one string.  The stdout of ``repro
explain`` (simulated and post mortem), ``repro report`` and ``repro
serve --explain`` must replay byte for byte, so a change to how the
explainer holds its data cannot change what it prints.  The
``pressure`` and ``elastic`` cases carry CAD throttles, memory
declines, ELB vetoes and delay passes, so the wait tallies and the
audit fold are exercised, not only the empty audit of a quiet run.
"""

import pytest

from tests.core.test_mechanism_identity import _REPO, _capture_module

_CAP = _capture_module()
_DIR = _REPO / "tests" / "data" / _CAP.EXPLAIN_DIR


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _CAP.explain_outputs(str(tmp_path_factory.mktemp("runlogs")))


def test_goldens_cover_all_cases():
    assert sorted(p.name for p in _DIR.iterdir()) == sorted(
        name for name, _ in _CAP.EXPLAIN_CASES)


@pytest.mark.parametrize("name", [name for name, _ in _CAP.EXPLAIN_CASES])
def test_output_is_byte_identical(name, outputs):
    assert outputs[name] == (_DIR / name).read_text()


def test_goldens_exercise_every_consequential_audit_action():
    text = "".join((_DIR / name).read_text()
                   for name, _ in _CAP.EXPLAIN_CASES)
    for action in ("cad-throttle", "cad-step", "mem-decline", "elb-veto",
                   "delay-pass"):
        assert f"  {action} " in text
