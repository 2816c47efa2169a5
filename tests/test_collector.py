"""The JSON-to-CSV chain runs with the cyclic garbage collector paused.

``model._collector_paused`` covers the parse, every frontier sweep and the
CSV.  The pause rests on the chain forming no reference cycle, so these
tests hold it to that, check that no collection runs inside a sweep, and
that every exit leaves the collector as the caller had it.
"""

import gc

import pytest

from batchfront.fileio import emit_instance, parse_instance
from batchfront.frontier import pareto_bounded, pareto_bounded_naive, pareto_front, pareto_precedence
from batchfront.generate import PROFILES, gen_random
from batchfront.model import InstanceError


@pytest.fixture
def collector_state():
    """Puts the cyclic collector back the way the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("profile", PROFILES)
def test_the_chain_leaves_no_cyclic_garbage(profile):
    # the premise of the pause: text to CSV, nothing forms a reference
    # cycle, so reference counting frees all of it
    text = emit_instance(gen_random(120, 1, profile))
    gc.collect()
    front = pareto_front(parse_instance(text))
    csv = front.to_csv()
    del front, csv
    assert gc.collect() == 0


def test_the_naive_sweep_leaves_no_cyclic_garbage():
    # its solver class is defined once, not once per call: a class built
    # inside the call would be left as a cycle of class, dict and methods
    instance = gen_random(12, 1, "small")
    gc.collect()
    front = pareto_bounded_naive(instance)
    del front
    assert gc.collect() == 0


@pytest.mark.parametrize("n, profile", [(400, "paper"), (200, "prec")])
def test_a_sweep_runs_no_collection(collector_state, n, profile):
    # a bounded fill allocates two lists per slot and a precedence instance
    # holds thousands of adjacency lists: enough for collections if the
    # collector ran during the sweep
    instance = gen_random(n, 1, profile)
    gc.enable()
    gc.collect()  # resets the allocation count, so reading the stats cannot trigger one
    before = gc.get_stats()
    pareto_front(instance)
    after = gc.get_stats()
    assert [gen["collections"] for gen in after] == [gen["collections"] for gen in before]
    assert gc.isenabled()


class _Stop(Exception):
    pass


def _stop(*_):
    raise _Stop


_BOUNDED = gen_random(12, 1, "small")
_PRECEDENCE = gen_random(6, 83, "prec")

_CALLS = [
    pytest.param(lambda: pareto_bounded(_BOUNDED).to_csv(), None, id="bounded"),
    pytest.param(lambda: pareto_precedence(_PRECEDENCE).to_csv(), None, id="precedence"),
    pytest.param(lambda: pareto_bounded_naive(_BOUNDED).to_csv(), None, id="naive"),
    pytest.param(lambda: pareto_bounded(_PRECEDENCE), InstanceError, id="bounded-wrong-model"),
    pytest.param(lambda: pareto_precedence(_BOUNDED), InstanceError, id="precedence-wrong-model"),
    pytest.param(lambda: pareto_bounded_naive(_PRECEDENCE), InstanceError, id="naive-wrong-model"),
    pytest.param(lambda: pareto_bounded(_BOUNDED, trace=_stop), _Stop, id="bounded-trace-raises"),
    pytest.param(lambda: pareto_precedence(_PRECEDENCE, trace=_stop), _Stop, id="precedence-trace-raises"),
    pytest.param(lambda: pareto_front(_BOUNDED, on_step=_stop), _Stop, id="on-step-raises"),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("call, error", _CALLS)
def test_a_sweep_leaves_the_collector_as_it_found_it(collector_state, enabled, call, error):
    # on every exit the caller's state comes back, and a collector the
    # caller turned off is never switched on
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()
    assert gc.isenabled() is enabled


def test_callbacks_run_with_the_collector_paused(collector_state):
    seen = []
    gc.enable()
    pareto_front(_PRECEDENCE, trace=lambda line: seen.append(gc.isenabled()), on_step=lambda *_: seen.append(gc.isenabled()))
    assert seen and not any(seen)
    assert gc.isenabled()
