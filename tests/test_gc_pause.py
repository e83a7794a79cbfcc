"""The cyclic collector pause around the library's clause-building entry
points: the collector's state comes back as it was (after returns, raises,
nested and concurrent calls), and the paused builders make no cycles."""

import gc
import sys
import threading

import pytest

from satcloak.cnf import DimacsError, _nogc, emit_dimacs, parse_dimacs, to_three_cnf
from satcloak.isomorph import iso_randomize
from satcloak.matrixrand import encode_linear, randomize_system
from satcloak.objective import MincostInstance, derandomize_mincost, randomize_mincost
from satcloak.orchestrator import check_solution, record_from_json, record_to_json
from satcloak.solsetrand import gf_randomize
from test_disguise import COSTS, PINNED, SEED, TINY, _disguise

TINY_TEXT = emit_dimacs(TINY)


@pytest.fixture
def gc_state():
    """Set the collector's state for a test and put it back afterwards."""
    before = gc.isenabled()

    def set_state(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(before)


@_nogc
def _observe():
    return gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_state_restored_after_return(gc_state, enabled):
    gc_state(enabled)
    assert _observe() is False
    assert parse_dimacs(TINY_TEXT) == TINY
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_state_restored_after_raise(gc_state, enabled):
    gc_state(enabled)
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    assert gc.isenabled() is enabled


def test_state_restored_after_nested_calls(gc_state):
    gc_state(True)

    @_nogc
    def outer():
        inner = _observe()
        # The inner call ended, but the outer one still runs.
        return inner, gc.isenabled(), to_three_cnf(parse_dimacs(TINY_TEXT))

    inner, after_inner, _ = outer()
    assert (inner, after_inner) == (False, False)
    assert gc.isenabled() is True
    # randomize_mincost nests to_three_cnf and gf_randomize.
    randomize_mincost(MincostInstance(TINY, COSTS), SEED, method="solution_set")
    assert gc.isenabled() is True


def test_state_restored_after_concurrent_calls(gc_state):
    gc_state(True)
    seen_enabled = []

    @_nogc
    def call():
        if gc.isenabled():
            seen_enabled.append(True)

    def worker():
        for _ in range(2000):
            call()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not seen_enabled
    assert gc.isenabled() is True


def _young_ids():
    return {id(obj) for obj in gc.get_objects(generation=0)}


def _built_by(instance):
    """Ids of the tracked objects a parse built: the instance and its
    clause lists."""
    return {id(instance), id(instance.clauses), *map(id, instance.clauses)}


@pytest.fixture
def freezes(monkeypatch):
    """Count the calls of ``gc.freeze``, which the pause makes once per
    promotion."""
    calls = []
    freeze = gc.freeze

    def counted():
        calls.append(True)
        freeze()

    monkeypatch.setattr(gc, "freeze", counted)
    return calls


def test_survivors_promoted_after_return(gc_state, freezes):
    gc_state(True)
    inst = parse_dimacs(TINY_TEXT)
    # The young count starts again from zero.
    assert gc.get_count()[0] < 10
    assert freezes == [True]
    assert gc.isenabled() is True
    assert not _built_by(inst) & _young_ids()


def test_nothing_promoted_when_collector_was_off(gc_state, freezes):
    gc_state(False)
    inst = parse_dimacs(TINY_TEXT)
    assert not freezes
    assert gc.isenabled() is False
    assert _built_by(inst) <= _young_ids()


def test_caller_frozen_objects_stay_frozen(gc_state, freezes):
    gc_state(True)
    gc.freeze()
    freezes.clear()  # the caller's own freeze
    try:
        frozen = gc.get_freeze_count()
        assert frozen
        inst = parse_dimacs(TINY_TEXT)
        assert gc.get_freeze_count() == frozen
        assert not freezes
        assert _built_by(inst) <= _young_ids()
    finally:
        gc.unfreeze()


def test_nested_calls_promote_once_at_outermost_exit(gc_state, freezes):
    gc_state(True)

    @_nogc
    def outer():
        inner = parse_dimacs(TINY_TEXT)
        # The inner call ended, but the outer one still runs.
        return inner, list(freezes), _built_by(inner) <= _young_ids()

    inner, promoted_inside, young_inside = outer()
    assert (promoted_inside, young_inside) == ([], True)
    assert freezes == [True]
    assert not _built_by(inner) & _young_ids()


def _no_cycles(func, *args, **kwargs):
    """``func(*args, **kwargs)``, asserting it left no cyclic garbage."""
    gc.collect()
    result = func(*args, **kwargs)
    assert gc.collect() == 0, func.__name__
    return result


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: c[0])
def test_builders_leave_no_cyclic_garbage(case):
    _, name, mincost, row_weight = case
    _, record, vector, costs, expected = _disguise(name, mincost, row_weight)
    _no_cycles(parse_dimacs, TINY_TEXT)
    three, _ = _no_cycles(to_three_cnf, TINY)
    if mincost:
        inst = MincostInstance(TINY, costs)
        _, secret = _no_cycles(
            randomize_mincost, inst, SEED, method=name, row_weight=row_weight
        )
        assert _no_cycles(derandomize_mincost, vector, secret, inst) == expected
    elif name == "iso":
        _no_cycles(iso_randomize, TINY, SEED)
    elif name == "matrix":
        _no_cycles(randomize_system, _no_cycles(encode_linear, three), SEED)
    else:
        _no_cycles(gf_randomize, three, SEED, row_weight)
    key = record_to_json(record)
    assert _no_cycles(record_from_json, key) == record
    assert _no_cycles(check_solution, record, vector, TINY, costs) == expected
