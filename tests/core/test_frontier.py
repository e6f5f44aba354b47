"""Scheduler frontier: O(active) free-node tracking vs the full scan.

:meth:`StageRunner._free_nodes` reads a maintained ascending list of
nodes with free capacity instead of scanning all ``n_nodes``.  These
property tests drive adversarial sequences of every slot-mutation site
— capacity grants, revocations (including ones that create owed-slot
debt), task-exit releases, node deaths and restarts — and assert after
**every** operation that it returns what a full scan over
``free_slots`` and liveness returns.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import NodeLiveness
from repro.core.policies import LocalityFirstPolicy
from repro.core.scheduler import StageRunner
from repro.sim import Simulator

N_NODES = 12

# One mutation: (operation, node, amount).
_ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "release",
                               "kill", "revive"]),
              st.integers(min_value=0, max_value=N_NODES - 1),
              st.integers(min_value=1, max_value=3)),
    min_size=1, max_size=60)


def _make_runner(liveness, slots):
    sim = Simulator()
    return StageRunner(sim, N_NODES, cores_per_node=2, tasks=[],
                       policy=LocalityFirstPolicy(), liveness=liveness,
                       slots=slots)


def _full_scan(runner):
    """Every live node with a free slot, in ascending order."""
    return [n for n in range(N_NODES)
            if runner.free_slots[n] > 0 and runner._alive(n)]


@given(_ops, st.lists(st.integers(min_value=0, max_value=2),
                      min_size=N_NODES, max_size=N_NODES))
@settings(max_examples=200, deadline=None)
def test_frontier_matches_full_scan_after_every_mutation(ops, slots):
    liveness = NodeLiveness(N_NODES)
    runner = _make_runner(liveness, slots)
    assert runner._free_nodes() == _full_scan(runner)  # the initial build

    for op, node, k in ops:
        if op == "add":
            runner.add_capacity(node, k)
        elif op == "remove":
            runner.remove_capacity(node, k)
        elif op == "release":
            runner._release_slot(node)
        elif op == "kill":
            liveness.mark_dead(node)
        else:
            liveness.mark_alive(node)
        assert runner._free_nodes() == _full_scan(runner), (op, node, k)
        # The frontier is exactly the ascending free-capacity set; the
        # liveness mask is applied on read, never baked into the list.
        assert runner._frontier == [
            n for n in range(N_NODES) if runner.free_slots[n] > 0]


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_frontier_without_liveness(ops):
    runner = _make_runner(None, None)  # default: every core free
    for op, node, k in ops:
        if op == "add":
            runner.add_capacity(node, k)
        elif op == "remove":
            runner.remove_capacity(node, k)
        elif op == "release":
            runner._release_slot(node)
        else:
            continue  # no liveness attached
        assert runner._free_nodes() == _full_scan(runner)


def test_owed_slot_release_pays_debt_without_frontier_growth():
    runner = _make_runner(None, [1] * N_NODES)
    assert runner._free_nodes() == list(range(N_NODES))
    # Revoke 3 slots on node 0: one idle slot reclaimed, 2 owed.
    assert runner.remove_capacity(0, 3) == 1
    assert 0 not in runner._free_nodes()
    # A task exit on node 0 repays debt — node 0 must NOT rejoin.
    runner._release_slot(0)
    assert 0 not in runner._free_nodes()
    runner._release_slot(0)
    assert 0 not in runner._free_nodes()
    # Debt cleared: the next release genuinely frees a slot.
    runner._release_slot(0)
    assert runner._free_nodes() == list(range(N_NODES))
