"""Required-cube generation (Definition 2.9) via minimal hitting sets.

For a 1→0 transition ``[A, B]`` the required cubes are the maximal subcubes
``[A, X]`` on which the function stays 1.  Freeing a set ``S`` of changing
variables is safe iff the resulting cube avoids every OFF cube; an OFF cube
``o`` meeting the transition cube blocks exactly the freed-sets
``S ⊇ D_o = {changing i : A_i ∉ o_i}``.  The maximal safe sets are therefore
the complements (within the changing set) of the *minimal hitting sets* of
``{D_o}``, which we enumerate with Berge's incremental algorithm.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

from repro.cubes import masks
from repro.cubes.cube import Cube, LITERAL_DC, mask01
from repro.cubes.cover import Cover
from repro.hazards.transitions import Transition


def minimal_hitting_sets(sets: Sequence[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """All minimal hitting sets of a family of non-empty sets, ordered by
    size, then elements.

    A wrapper over the bit-set Berge enumeration of
    :func:`repro.cubes.masks.minimal_hitting_sets`.
    """
    universe = sorted(set().union(*sets))
    bit = {x: 1 << i for i, x in enumerate(universe)}
    family = [sum(bit[x] for x in d) for d in sets]
    hitting = [
        frozenset(x for i, x in enumerate(universe) if h >> i & 1)
        for h in masks.minimal_hitting_sets(family)
    ]
    return sorted(hitting, key=lambda s: (len(s), sorted(s)))


def maximal_subcubes(
    start: Sequence[int], changing: Sequence[int], blockers: Sequence[int]
) -> List[Cube]:
    """The maximal cubes ``[start, X]`` avoiding every blocker, sorted.

    ``blockers`` holds one ``D_o`` per OFF cube meeting the transition
    cube, as a mask with the low bit of changing variable ``j`` (position
    ``2j``) set iff ``o`` excludes ``start`` there.
    """
    if not all(blockers):
        raise ValueError(
            "OFF cube contains the start point of a 1->0 transition; "
            "the instance is ill-formed (f(A) must be 1)"
        )
    if not blockers:
        raise ValueError(
            "no OFF cube meets the transition cube of a 1->0 transition; "
            "the end point must be OFF"
        )
    base = Cube.minterm(start).inbits
    out = []
    for h in masks.minimal_hitting_sets(blockers):
        inbits = base
        freed = mask01(len(changing)) & ~h
        while freed:
            low = freed & -freed
            inbits |= LITERAL_DC << (2 * changing[low.bit_length() >> 1])
            freed ^= low
        out.append(inbits)
    return [Cube(len(start), b) for b in sorted(out)]


def maximal_on_subcubes(
    transition: Transition, off: Cover
) -> List[Cube]:
    """The required cubes of a 1→0 transition: maximal ON subcubes ``[A, X]``.

    ``off`` is the single-output OFF cover.  The transition is assumed
    function-hazard-free with ``f(A)=1`` and ``f(B)=0``.
    """
    rows = masks.project([(c.inbits, 1) for c in off if c.outbits], transition, 1)[0]
    m01 = mask01(len(transition.changing))
    return maximal_subcubes(
        transition.start, transition.changing, [~v & m01 for v in rows]
    )


def maximal_on_subcubes_brute(transition: Transition, on: Cover) -> List[Cube]:
    """Exhaustive oracle for :func:`maximal_on_subcubes` (small n only).

    Enumerates every subset of changing variables, keeps those whose cube
    ``[A, X]`` lies inside the ON cover, and returns the maximal ones.
    """
    import itertools

    start = transition.start
    changing = transition.changing
    good: List[Tuple[FrozenSet[int], Cube]] = []
    for r in range(len(changing) + 1):
        for combo in itertools.combinations(changing, r):
            cube = Cube.minterm(start)
            for i in combo:
                cube = cube.with_literal(i, LITERAL_DC)
            if all(on.evaluate(v) for v in cube.minterm_vectors()):
                good.append((frozenset(combo), cube))
    maximal = [
        cube
        for s, cube in good
        if not any(s < s2 for s2, _ in good)
    ]
    return sorted(maximal)
