"""The generation layer's own contract: validity, determinism, bias.

The rest of the property suite trusts :mod:`repro.proptest.strategies` to
hand it well-formed instances; this file is where that trust is earned.
"""

from hypothesis import given

from repro.hazards import hazard_free_solution_exists
from repro.hazards.transitions import function_hazard_free
from repro.pla.writer import format_pla
from repro.proptest.strategies import (
    DEFAULT_CONFIG,
    FUZZ_CONFIG,
    InstanceConfig,
    covers,
    cubes,
    instances,
    repair_to_solvable,
    seeded_instance,
    solvable_instances,
)


class TestGeneratedObjectValidity:
    @given(cubes(4, n_outputs=2))
    def test_cubes_are_nonempty_and_shaped(self, c):
        assert c.n_inputs == 4 and c.n_outputs == 2
        assert not c.is_empty

    @given(covers(3, n_outputs=2, max_cubes=4))
    def test_covers_are_shaped(self, cover):
        assert cover.n_inputs == 3 and cover.n_outputs == 2
        assert len(cover) <= 4

    @given(instances())
    def test_instances_are_well_formed(self, inst):
        cfg = DEFAULT_CONFIG
        assert cfg.min_inputs <= inst.n_inputs <= cfg.max_inputs
        assert cfg.min_outputs <= inst.n_outputs <= cfg.max_outputs
        assert len(inst.on) <= cfg.max_on_cubes
        assert cfg.min_transitions <= len(inst.transitions) <= cfg.max_transitions
        # the function is fully defined: instance construction validated it,
        # and every transition is function-hazard-free per output
        for j in range(inst.n_outputs):
            on_j = inst.on.restrict_to_output(j)
            off_j = inst.off.restrict_to_output(j)
            for t in inst.transitions:
                assert function_hazard_free(t, on_j, off_j)

    @given(solvable_instances())
    def test_solvable_instances_are_solvable(self, inst):
        assert hazard_free_solution_exists(inst)


class TestSeededDeterminism:
    def test_same_seed_same_instance(self):
        for seed in range(25):
            a = seeded_instance(seed)
            b = seeded_instance(seed)
            if a is None:
                assert b is None
                continue
            assert format_pla(a) == format_pla(b)
            assert a.transitions == b.transitions

    def test_seeds_vary(self):
        """Different seeds produce different instances (not a constant)."""
        texts = {
            format_pla(inst)
            for inst in (seeded_instance(s) for s in range(25))
            if inst is not None
        }
        assert len(texts) > 10

    def test_config_is_respected(self):
        cfg = InstanceConfig(
            min_inputs=3, max_inputs=3, min_outputs=2, max_outputs=2
        )
        for seed in range(10):
            inst = seeded_instance(seed, cfg)
            if inst is None:
                continue
            assert inst.n_inputs == 3
            assert inst.n_outputs == 2


class TestSolvabilityBias:
    def test_bias_makes_most_seeds_solvable(self):
        """The Theorem 4.1 repair keeps the fuzz stream in the solvable
        region where the minimizer actually executes."""
        produced = solvable = 0
        for seed in range(60):
            inst = seeded_instance(seed, FUZZ_CONFIG)
            if inst is None:
                continue
            produced += 1
            if hazard_free_solution_exists(inst):
                solvable += 1
        assert produced >= 40
        assert solvable / produced >= 0.8

    def test_repair_only_drops_transitions(self):
        for seed in range(30):
            raw = seeded_instance(
                seed,
                InstanceConfig(
                    min_inputs=3,
                    max_inputs=5,
                    max_on_cubes=8,
                    max_transitions=4,
                    solvable_bias=False,
                ),
            )
            if raw is None:
                continue
            repaired = repair_to_solvable(raw)
            assert repaired.on is raw.on and repaired.off is raw.off
            assert set(repaired.transitions) <= set(raw.transitions)


class TestHypothesisStaysOffTheProductPath:
    def test_corpus_generation_canon_and_run_corpus_never_import_it(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys\n"
            "from repro.corpus import differential_payload, generate_corpus\n"
            "from repro.corpus.executor import run_corpus\n"
            "corpus = generate_corpus(11, 20)\n"
            "import repro.serve.canon\n"
            "payloads = [differential_payload(c.name, c.pla_text, c.stratum,"
            " c.solvable) for c in corpus[:3]]\n"
            "rows, stats = run_corpus(payloads, jobs=2)\n"
            "assert stats.executed == 3, stats\n"
            "assert 'hypothesis' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_lazy_names_still_resolve(self):
        import repro.proptest as proptest
        from repro.proptest.metamorphic import transforms_for

        assert proptest.instances is instances
        assert proptest.transforms_for is transforms_for
        assert proptest.HAVE_HYPOTHESIS is True
        for name in proptest.__all__:
            assert getattr(proptest, name) is not None, name
