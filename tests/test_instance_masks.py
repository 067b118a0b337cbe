"""The int-mask instance table against the frozen ``Cube``/``Cover`` reference.

:class:`repro.hazards.instance.HazardFreeInstance` classifies, checks and
derives every (transition, output) pair from one projection of the
multi-output rows per transition.  ``tests/hazards_ref.py`` keeps the
per-pair algebra it replaced.  Everything observable must be identical:
the constructor's verdict (exception type and message included),
``kind(t, j)`` for every pair, the required and privileged lists (order
and ``.transition`` field included), and the results of the public
wrappers ``function_hazard_free``, ``maximal_on_subcubes`` and
``minimal_hitting_sets`` — on the 15 benchmark PLAs, a corpus draw over
every stratum, malformed variants of both, single-output restrictions
and Hypothesis-drawn inputs.
"""

import copy
import dataclasses
import pickle
import random
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st

from repro.corpus.generator import DEFAULT_STRATA, generate_corpus
from repro.cubes.cover import Cover
from repro.cubes.operations import changing_vars, transition_cube
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.required import maximal_on_subcubes, minimal_hitting_sets
from repro.hazards.transitions import (
    Transition,
    TransitionKind,
    function_hazard_free,
)
from repro.pla import parse_pla
from repro.proptest.strategies import covers, instances, transitions
from tests import hazards_ref as ref

PLAS = sorted((Path(__file__).resolve().parents[1] / "data" / "benchmarks").glob("*.pla"))


def _capture(fn):
    """``fn()``'s result, or its exception as ``(type, message)``."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the observation
        return (type(exc), str(exc))


def _observe(inst):
    """Everything the table serves, read off a built instance."""
    return {
        "kinds": [
            _capture(lambda: inst.kind(t, j))
            for t in inst.transitions
            for j in range(inst.n_outputs)
        ],
        "required": _capture(inst.required_cubes),
        "privileged": _capture(inst.privileged_cubes),
        "validate": _capture(inst.validate),
    }


def assert_same(on, off, trans, validate=True):
    """Both implementations agree on the instance and, per output, on its
    single-output restriction; returns the shared observation."""
    seen = []
    for cls in (HazardFreeInstance, ref.HazardFreeInstanceRef):
        inst = _capture(lambda: cls(on, off, trans, validate=validate))
        if isinstance(inst, cls):
            restricted = [_observe(inst.restrict_to_output(j)) for j in range(inst.n_outputs)]
            seen.append((_observe(inst), restricted))
        else:
            seen.append(inst)
    assert seen[0] == seen[1]
    return seen[0]


def assert_wrappers_same(on, off, trans):
    """The public per-output functions agree with the reference on every
    (transition, output) pair, in both directions and under every kind."""
    for j in range(on.n_outputs):
        on_j, off_j = on.restrict_to_output(j), off.restrict_to_output(j)
        for t in trans:
            if len(t.start) != on.n_inputs:
                continue
            for kind in (None,) + tuple(TransitionKind):
                assert _capture(lambda: function_hazard_free(t, on_j, off_j, kind)) == _capture(
                    lambda: ref.function_hazard_free(t, on_j, off_j, kind)
                )
            for tt in (t, t.reversed()):
                assert _capture(lambda: maximal_on_subcubes(tt, off_j)) == _capture(
                    lambda: ref.maximal_on_subcubes(tt, off_j)
                )


def malformed_variants(on, off, trans, rng):
    """``(on, off, transitions, validate)`` variants that break the model:
    an extra random transition, ON plus one OFF cube, a wrong-width
    transition, and an undefined endpoint."""
    n = on.n_inputs
    start = tuple(rng.randint(0, 1) for _ in range(n))
    end = tuple(rng.randint(0, 1) for _ in range(n))
    yield on, off, trans + [Transition(start, end)], True
    yield on, off, trans + [Transition(start, end)], False
    if off.cubes:
        overlap = Cover(n, on.cubes + [rng.choice(off.cubes)], on.n_outputs)
        yield overlap, off, trans, True
        yield overlap, off, trans, False
    wide = Transition(start + (0,), end + (1,))
    yield on, off, trans + [wide], True
    yield on, off, trans + [wide], False
    if trans:
        a = trans[0].start
        hole_on = Cover(n, [c for c in on if not c.contains_minterm(a)], on.n_outputs)
        hole_off = Cover(n, [c for c in off if not c.contains_minterm(a)], on.n_outputs)
        yield hole_on, hole_off, trans, True
        yield hole_on, hole_off, trans, False


@pytest.fixture(scope="module")
def corpus():
    drawn = [c for seed in (11, 12) for c in generate_corpus(seed, 14)]
    assert {c.stratum for c in drawn} == {s.name for s in DEFAULT_STRATA}
    return [parse_pla(c.pla_text, name=c.name) for c in drawn]


class TestBenchmarks:
    @pytest.mark.parametrize("path", PLAS, ids=[p.stem for p in PLAS])
    def test_identical(self, path):
        pla = parse_pla(path.read_text(), name=path.stem)
        observed, _ = assert_same(pla.on, pla.off, pla.transitions)
        assert observed["validate"] is None
        assert observed["required"] and observed["privileged"]

    def test_suite_size(self):
        assert len(PLAS) == 15

    @pytest.mark.parametrize("path", PLAS[::3], ids=[p.stem for p in PLAS[::3]])
    def test_wrappers(self, path):
        pla = parse_pla(path.read_text(), name=path.stem)
        assert_wrappers_same(pla.on, pla.off, pla.transitions)

    @pytest.mark.parametrize("path", PLAS, ids=[p.stem for p in PLAS])
    def test_malformed(self, path):
        pla = parse_pla(path.read_text(), name=path.stem)
        rng = random.Random(path.stem)
        for on, off, trans, validate in malformed_variants(
            pla.on, pla.off, list(pla.transitions), rng
        ):
            assert_same(on, off, trans, validate)


class TestCorpus:
    def test_identical(self, corpus):
        for pla in corpus:
            observed, _ = assert_same(pla.on, pla.off, pla.transitions)
            assert observed["validate"] is None
            assert_wrappers_same(pla.on, pla.off, pla.transitions)

    def test_malformed(self, corpus):
        rng = random.Random(13)
        messages = []
        for pla in corpus:
            for on, off, trans, validate in malformed_variants(
                pla.on, pla.off, list(pla.transitions), rng
            ):
                messages += _errors(assert_same(on, off, trans, validate))
        # every failure mode of validation and classification is exercised
        for phrase in (
            "intersect",
            "not fully defined",
            "function hazard",
            "wrong width",
            "endpoint undefined",
        ):
            assert any(phrase in m for m in messages), phrase


def _errors(observation):
    """The messages of every exception captured in an observation."""
    if isinstance(observation, tuple) and isinstance(observation[0], type):
        return [observation[1]]
    if isinstance(observation, dict):
        observation = list(observation.values())
    if isinstance(observation, (list, tuple)):
        return [m for item in observation for m in _errors(item)]
    return []


class TestHypothesis:
    @given(instances())
    def test_valid_instances(self, inst):
        assert_same(inst.on, inst.off, inst.transitions)
        assert_wrappers_same(inst.on, inst.off, inst.transitions)

    @given(st.data())
    def test_arbitrary_covers(self, data):
        n = data.draw(st.integers(1, 4), label="n_inputs")
        n_out = data.draw(st.integers(1, 2), label="n_outputs")
        on = data.draw(covers(n, n_out, max_cubes=4), label="on")
        off = data.draw(covers(n, n_out, max_cubes=4), label="off")
        trans = data.draw(st.lists(transitions(n), max_size=3), label="transitions")
        for validate in (True, False):
            assert_same(on, off, trans, validate)
        assert_wrappers_same(on, off, trans)

    @given(st.lists(st.frozensets(st.integers(0, 6), max_size=4), max_size=6))
    @example([frozenset({0, 1}), frozenset({2, 3})])
    @example([frozenset({5, 9}), frozenset({9, 2, 7}), frozenset({1, 5, 7})])
    def test_minimal_hitting_sets(self, family):
        assert _capture(lambda: minimal_hitting_sets(family)) == _capture(
            lambda: ref.minimal_hitting_sets(family)
        )


class TestTransitionMemo:
    def test_memoized_fields_are_invisible(self):
        t = Transition((0, 1, 0, 1), (1, 1, 1, 0))
        twin = Transition((0, 1, 0, 1), (1, 1, 1, 0))
        pickled = pickle.dumps(t)
        assert t.cube == transition_cube(t.start, t.end)
        assert t.changing == changing_vars(t.start, t.end) == (0, 2, 3)
        assert t.cube is t.cube and t.changing is t.changing
        assert t == twin and hash(t) == hash(twin)
        assert pickle.dumps(t) == pickled == pickle.dumps(twin)
        back = pickle.loads(pickled)
        assert back == t and back.cube == t.cube and back.changing == t.changing
        assert copy.deepcopy(t) == t
        assert [f.name for f in dataclasses.fields(Transition)] == ["start", "end"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.start = (0, 0, 0, 0)
