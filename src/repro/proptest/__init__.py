"""Property-based correctness toolkit for the hazard-free minimizer.

This package is the repository's *shipped* property-testing layer — the
strategies, metamorphic transforms, stateful machine, and counterexample
plumbing that both the test suite (``tests/test_properties.py``,
``tests/test_metamorphic.py``, ``tests/test_pipeline_machine.py``,
``tests/test_bug_injection.py``) and the seeded fuzz loop
(:mod:`repro.guard.fuzz`) are built on.  See ``docs/TESTING.md`` for the
test-layer map and replay workflow.

Modules
-------
:mod:`~repro.proptest.strategies`
    Composable generators for cubes, covers, transitions, and whole
    :class:`~repro.hazards.instance.HazardFreeInstance` values, built on a
    :class:`~repro.proptest.strategies.DrawSource` abstraction so one
    builder serves both Hypothesis (shrinkable) and a seeded PRNG
    (deterministic fuzz).  Generation is solvability-aware via the
    Theorem 4.1 existence report.
:mod:`~repro.proptest.metamorphic`
    Hazard-freedom-preserving instance rewrites (input permutation,
    polarity flip, output duplication, transition subsetting) with their
    cover mappings and provable result relations.
:mod:`~repro.proptest.machine`
    A Hypothesis ``RuleBasedStateMachine`` driving the pass pipeline in
    arbitrary legal orders, asserting the Theorem 2.11 conditions after
    every step.
:mod:`~repro.proptest.database`
    Hypothesis example database + guard repro-bundle persistence for
    shrunk counterexamples.
:mod:`~repro.proptest.faults`
    Seeded defect injection through the pipeline's ``pass_decorator``
    seam — proof that the oracles catch broken phase operators.

Hypothesis is a *test-time* dependency: the seeded builders
(:func:`~repro.proptest.strategies.seeded_instance`) and the fault
injector work without it, and everything Hypothesis-specific degrades to
a :class:`RuntimeError`-raising stub when it is absent
(``HAVE_HYPOTHESIS``).  It is imported only when a Hypothesis strategy
is first used, and this package loads its modules lazily (PEP 562), so
the product paths that use the seeded builders or the metamorphic
rewrites (corpus generation, serve canonicalization) never load it.
"""

__all__ = [
    "DEFAULT_CONFIG",
    "DEFECTS",
    "Defect",
    "DrawSource",
    "FUZZ_CONFIG",
    "FaultyPass",
    "HAVE_HYPOTHESIS",
    "HypothesisSource",
    "InstanceConfig",
    "MetamorphicTransform",
    "RandomSource",
    "build_instance",
    "build_unsolvable_instance",
    "covers",
    "cubes",
    "fault_decorator",
    "faulty_options",
    "input_permutation",
    "instances",
    "output_duplication",
    "polarity_flip",
    "probe_with_fault",
    "repair_to_solvable",
    "seeded_instance",
    "solvable_instances",
    "transforms_for",
    "transition_subset",
    "transitions",
    "unsolvable_instances",
]

_LAZY = {
    **dict.fromkeys(
        ("DEFECTS", "Defect", "FaultyPass", "fault_decorator",
         "faulty_options", "probe_with_fault"),
        "repro.proptest.faults",
    ),
    **dict.fromkeys(
        ("MetamorphicTransform", "input_permutation", "output_duplication",
         "polarity_flip", "transition_subset", "transforms_for"),
        "repro.proptest.metamorphic",
    ),
}


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module_name = _LAZY.get(name, "repro.proptest.strategies")
    return getattr(importlib.import_module(module_name), name)
