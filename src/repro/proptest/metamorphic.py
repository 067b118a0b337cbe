"""Metamorphic transforms: hazard-freedom-preserving instance rewrites.

A metamorphic test runs the system twice — on an instance and on a
transformed instance — and asserts a *relation* between the two results
instead of an absolute oracle.  The four transforms here are chosen
because their effect on every object of the hazard-free minimization
model is known exactly:

``input_permutation`` / ``polarity_flip``
    Relabel / complement input variables.  These are bijections on the
    input space that commute with cube containment, intersection, OFF-set
    membership, and transition reachability, so: Theorem 4.1 solvability,
    the required/privileged cube sets, the Theorem 2.11 verdict of any
    (transformed) cover, and the minimizer's cover cardinality are all
    invariant.

``output_duplication``
    Append a copy of an existing output (covers and transitions shared).
    A cover cube serving the original output serves the copy identically,
    so solvability and the verifier verdict are invariant, and the
    multi-output minimizer shares every cube across the pair — cover
    cardinality is invariant too.

``transition_subset``
    Keep a subset of the specified transitions.  This weakens the
    specification monotonically: required and privileged cubes only
    disappear, so a hazard-free cover of the original instance remains
    hazard-free, and a solvable instance remains solvable.  (Cardinality
    is *not* asserted invariant: fewer required cubes can admit smaller
    covers.)

Each transform maps instances (``apply_instance``) *and* covers
(``apply_cover``), so a result computed on one side can be checked with
the verifier on the other.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.cubes.cube import Cube, LITERAL_ONE, LITERAL_ZERO
from repro.cubes.cover import Cover
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition

HAVE_HYPOTHESIS = importlib.util.find_spec("hypothesis") is not None


@dataclass(frozen=True)
class MetamorphicTransform:
    """One instance rewrite plus its cover mapping and known relations.

    ``cardinality`` records what the transform provably does to the
    minimized cover size: ``"equal"`` (bijective relabelings and output
    duplication) or ``"weaker"`` (transition subsetting — the transformed
    instance is under-constrained relative to the original).
    """

    name: str
    apply_instance: Callable[[HazardFreeInstance], HazardFreeInstance]
    apply_cover: Callable[[Cover], Cover]
    cardinality: str = "equal"

    def __str__(self) -> str:
        return self.name


# ----------------------------------------------------------------------
# Input-variable permutation
# ----------------------------------------------------------------------


def permute_cube(cube: Cube, perm: Sequence[int]) -> Cube:
    """Cube with new variable ``i`` carrying old variable ``perm[i]``."""
    lits = cube.literals()
    return Cube.from_literals(
        [lits[perm[i]] for i in range(cube.n_inputs)], cube.outbits, cube.n_outputs
    )


def permute_cover(cover: Cover, perm: Sequence[int]) -> Cover:
    return Cover(
        cover.n_inputs, [permute_cube(c, perm) for c in cover], cover.n_outputs
    )


def permute_instance(
    instance: HazardFreeInstance, perm: Sequence[int]
) -> HazardFreeInstance:
    n = instance.n_inputs
    transitions = [
        Transition(
            tuple(t.start[perm[i]] for i in range(n)),
            tuple(t.end[perm[i]] for i in range(n)),
        )
        for t in instance.transitions
    ]
    return HazardFreeInstance(
        permute_cover(instance.on, perm),
        permute_cover(instance.off, perm),
        transitions,
        name=f"{instance.name}-perm",
        validate=False,
    )


def input_permutation(perm: Sequence[int]) -> MetamorphicTransform:
    perm = tuple(perm)
    return MetamorphicTransform(
        name=f"permute{list(perm)}",
        apply_instance=lambda inst: permute_instance(inst, perm),
        apply_cover=lambda cover: permute_cover(cover, perm),
        cardinality="equal",
    )


# ----------------------------------------------------------------------
# Input polarity flip
# ----------------------------------------------------------------------


def flip_cube(cube: Cube, mask: int) -> Cube:
    """Cube with every variable in ``mask`` complemented (0 <-> 1)."""
    lits = list(cube.literals())
    for i in range(cube.n_inputs):
        if (mask >> i) & 1 and lits[i] in (LITERAL_ZERO, LITERAL_ONE):
            lits[i] = LITERAL_ONE + LITERAL_ZERO - lits[i]
    return Cube.from_literals(lits, cube.outbits, cube.n_outputs)


def flip_cover(cover: Cover, mask: int) -> Cover:
    return Cover(
        cover.n_inputs, [flip_cube(c, mask) for c in cover], cover.n_outputs
    )


def flip_instance(instance: HazardFreeInstance, mask: int) -> HazardFreeInstance:
    def flip_vec(vec: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(v ^ ((mask >> i) & 1) for i, v in enumerate(vec))

    transitions = [
        Transition(flip_vec(t.start), flip_vec(t.end))
        for t in instance.transitions
    ]
    return HazardFreeInstance(
        flip_cover(instance.on, mask),
        flip_cover(instance.off, mask),
        transitions,
        name=f"{instance.name}-flip",
        validate=False,
    )


def polarity_flip(mask: int) -> MetamorphicTransform:
    return MetamorphicTransform(
        name=f"flip{mask:#x}",
        apply_instance=lambda inst: flip_instance(inst, mask),
        apply_cover=lambda cover: flip_cover(cover, mask),
        cardinality="equal",
    )


# ----------------------------------------------------------------------
# Output duplication
# ----------------------------------------------------------------------


def duplicate_output_cover(cover: Cover, j: int) -> Cover:
    """Cover with a new last output mirroring output ``j``."""
    n_out = cover.n_outputs + 1
    cubes: List[Cube] = []
    for c in cover:
        outbits = c.outbits
        if (outbits >> j) & 1:
            outbits |= 1 << cover.n_outputs
        cubes.append(Cube(c.n_inputs, c.inbits, outbits, n_out))
    return Cover(cover.n_inputs, cubes, n_out)


def duplicate_output_instance(
    instance: HazardFreeInstance, j: int
) -> HazardFreeInstance:
    return HazardFreeInstance(
        duplicate_output_cover(instance.on, j),
        duplicate_output_cover(instance.off, j),
        instance.transitions,
        name=f"{instance.name}-dup{j}",
        validate=False,
    )


def output_duplication(j: int) -> MetamorphicTransform:
    return MetamorphicTransform(
        name=f"dup-out{j}",
        apply_instance=lambda inst: duplicate_output_instance(inst, j),
        apply_cover=lambda cover: duplicate_output_cover(cover, j),
        cardinality="equal",
    )


# ----------------------------------------------------------------------
# Transition subsetting
# ----------------------------------------------------------------------


def subset_transitions_instance(
    instance: HazardFreeInstance, keep: Sequence[int]
) -> HazardFreeInstance:
    transitions = [instance.transitions[i] for i in keep]
    return HazardFreeInstance(
        instance.on,
        instance.off,
        transitions,
        name=f"{instance.name}-sub",
        validate=False,
    )


def transition_subset(keep: Sequence[int]) -> MetamorphicTransform:
    keep = tuple(keep)
    return MetamorphicTransform(
        name=f"subset{list(keep)}",
        apply_instance=lambda inst: subset_transitions_instance(inst, keep),
        apply_cover=lambda cover: cover,
        cardinality="weaker",
    )


# ----------------------------------------------------------------------
# Strategy: a transform valid for a given instance
# ----------------------------------------------------------------------


def _define_transforms_for() -> None:
    global transforms_for
    from hypothesis import strategies as st

    @st.composite
    def transforms_for(draw, instance: HazardFreeInstance):
        """Draw one metamorphic transform with parameters valid for
        ``instance`` (permutation width, output index, transition count)."""
        kinds = ["permute", "flip", "dup"]
        if len(instance.transitions) > 1:
            kinds.append("subset")
        kind = draw(st.sampled_from(kinds))
        if kind == "permute":
            perm = draw(st.permutations(range(instance.n_inputs)))
            return input_permutation(perm)
        if kind == "flip":
            mask = draw(st.integers(1, (1 << instance.n_inputs) - 1))
            return polarity_flip(mask)
        if kind == "dup":
            j = draw(st.integers(0, instance.n_outputs - 1))
            return output_duplication(j)
        n = len(instance.transitions)
        keep = draw(
            st.lists(
                st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True
            )
        )
        return transition_subset(sorted(keep))


def _needs_hypothesis(*_args, **_kwargs):
    raise RuntimeError("transforms_for requires the 'hypothesis' package")


def __getattr__(name):
    """Import Hypothesis when the ``transforms_for`` strategy is first used."""
    if name != "transforms_for":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if not HAVE_HYPOTHESIS:  # pragma: no cover - exercised only without it
        return _needs_hypothesis
    _define_transforms_for()
    return transforms_for
