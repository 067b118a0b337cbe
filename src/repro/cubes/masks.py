"""Int-mask kernel for per-transition reasoning.

Everything here works on bare ints in the two-bits-per-variable encoding
of :mod:`repro.cubes.cube`, never on :class:`~repro.cubes.cube.Cube`
objects.  A specified transition ``[A, B]`` is reasoned about through
*projected rows*: each cover cube meeting the transition cube, restricted
to the ``k`` changing variables and re-encoded start-relative — for
changing variable ``j`` the low bit admits ``A``'s value and the high bit
admits ``B``'s.  A projected row therefore contains the start point iff
all its low bits are set and the end point iff all its high bits are set.

Three functions: :func:`project` builds the rows, :func:`covered` decides
whether a union of rows contains a cube, :func:`minimal_hitting_sets`
enumerates minimal transversals (Berge) of a family of bit-sets.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro._compat import popcount
from repro.cubes.cube import mask01


def project(
    rows: Iterable[Tuple[int, int]], transition, n_outputs: int
) -> List[List[int]]:
    """Per output, the ``(inbits, outbits)`` rows meeting the transition
    cube, projected start-relative onto the changing variables.

    ``transition`` needs ``start``, ``changing`` and ``cube``.  Rows with
    no output, or disjoint from the transition cube, are dropped; row
    order is kept.
    """
    start = transition.start
    flips = [(2 * p, 2 * j, start[p]) for j, p in enumerate(transition.changing)]
    t_inbits = transition.cube.inbits
    m01 = mask01(len(start))
    out: List[List[int]] = [[] for _ in range(n_outputs)]
    for inbits, outbits in rows:
        meet = inbits & t_inbits
        if not outbits or ~(meet | meet >> 1) & m01:
            continue  # no output, or disjoint from the transition cube
        v = 0
        for src, dst, flip in flips:
            lit = inbits >> src & 3
            if flip:
                lit = lit >> 1 | (lit & 1) << 1
            v |= lit << dst
        while outbits:
            low = outbits & -outbits
            out[low.bit_length() - 1].append(v)
            outbits ^= low
    return out


def covered(cube: int, rows: Sequence[int], m01: int) -> bool:
    """Whether the union of ``rows`` contains ``cube`` (two bits per
    variable; ``m01`` has the low bit of every variable set); Shannon
    splitting."""
    live = []
    for r in rows:
        meet = r & cube
        if ~(meet | meet >> 1) & m01:
            continue
        if meet == cube:
            return True
        live.append(r)
    if not live:
        return False
    dc = cube & cube >> 1 & m01
    # A live row that does not contain the cube is restricted on some
    # variable the cube leaves free: split there.
    split = dc & ~(live[0] & live[0] >> 1)
    low = split & -split
    rest = cube & ~(low * 3)
    return covered(rest | low, live, m01) and covered(rest | low << 1, live, m01)


def minimal_hitting_sets(sets: Iterable[int]) -> List[int]:
    """All minimal hitting sets of a family of non-empty bit-sets.

    Berge's incremental construction: keep the minimal hitting sets of a
    prefix of the family; to add a set ``d``, extend each one that misses
    ``d`` by every element of ``d`` and re-minimize.  Only the family's
    minimal sets are processed — whatever hits ``d' ⊆ d`` also hits ``d``.
    Results are ordered by size, then value.
    """
    family = list(sets)
    if not all(family):
        raise ValueError("cannot hit an empty set")
    current = [0]
    for d in _minimal(family):
        extended = set()
        for h in current:
            if h & d:
                extended.add(h)
                continue
            rest = d
            while rest:
                low = rest & -rest
                extended.add(h | low)
                rest ^= low
        current = _minimal(extended)
    return current


def _minimal(sets: Iterable[int]) -> List[int]:
    """The inclusion-minimal members of a family, by size then value."""
    kept: List[int] = []
    for s in sorted(set(sets), key=lambda s: (popcount(s), s)):
        if all(k & ~s for k in kept):
            kept.append(s)
    return kept
