"""Hazard-free minimization problem instances.

A :class:`HazardFreeInstance` bundles a (possibly multi-output) Boolean
function — given as ON and OFF covers; everything else is don't-care — with
a set of specified multiple-input-change transitions.  From it we derive the
three objects every algorithm in the library consumes (paper §3.1):

* the set ``Q`` of required cubes (with their output index),
* the set ``P`` of privileged cubes with their start points,
* the OFF-set ``R``.

Validation and derivation read one int-mask table per transition: the
multi-output rows projected onto its changing variables, and each output's
transition kind (docs/ALGORITHM.md, "Validation and derivation kernel").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cubes.cube import Cube, mask01
from repro.cubes.cover import Cover
from repro.cubes.masks import covered, project
from repro.guard.errors import MalformedInstance
from repro.hazards.transitions import (
    Transition,
    TransitionKind,
    classify_transition,
    hazard_free_rows,
)
from repro.hazards.required import maximal_subcubes


@dataclass(frozen=True)
class RequiredCube:
    """A cube that must be contained in a single cube of any hazard-free cover.

    ``cube`` is the input part (single-output encoding); ``output`` the index
    of the output function it belongs to; ``transition`` the specified
    transition it was derived from (for diagnostics).
    """

    cube: Cube
    output: int
    transition: Optional[Transition] = None

    def __str__(self) -> str:
        return f"req[{self.cube.input_string()} @out{self.output}]"


@dataclass(frozen=True)
class PrivilegedCube:
    """A 1→0 transition cube: intersecting it without covering its start
    point makes an implicant hazardous (Definition 2.10)."""

    cube: Cube
    start: Cube  # minterm cube of the transition's start point
    output: int
    transition: Optional[Transition] = None

    def __str__(self) -> str:
        return (
            f"priv[{self.cube.input_string()} start={self.start.input_string()}"
            f" @out{self.output}]"
        )


class InstanceError(MalformedInstance):
    """Raised when an instance violates the model's preconditions.

    Part of the :class:`~repro.guard.errors.MalformedInstance` family (still
    a ``ValueError``), so the CLI reports it as a user-input error (exit 4).
    """


class _TransitionTable:
    """Everything validation and derivation read about one transition, as
    ints: per output the projected ON and OFF rows (start-relative, see
    :func:`repro.cubes.masks.project`) and the transition kind (``None``
    when an endpoint is undefined)."""

    __slots__ = ("m01", "on", "off", "kinds")

    def __init__(
        self,
        t: Transition,
        on_rows: Sequence[Tuple[int, int]],
        off_rows: Sequence[Tuple[int, int]],
        n_outputs: int,
    ):
        self.m01 = m01 = mask01(len(t.changing))
        self.on = on = project(on_rows, t, n_outputs)
        self.off = off = project(off_rows, t, n_outputs)
        kinds: List[Optional[TransitionKind]] = []
        for on_j, off_j in zip(on, off):
            # A projected row holds the start (end) point iff all its low
            # (high) bits are set; ON takes precedence, as in value().
            sv = ev = None
            if any(v & m01 == m01 for v in on_j):
                sv = True
            elif any(v & m01 == m01 for v in off_j):
                sv = False
            if any(v >> 1 & m01 == m01 for v in on_j):
                ev = True
            elif any(v >> 1 & m01 == m01 for v in off_j):
                ev = False
            kinds.append(
                None if sv is None or ev is None else classify_transition(t, sv, ev)
            )
        self.kinds: Tuple[Optional[TransitionKind], ...] = tuple(kinds)


class HazardFreeInstance:
    """A function plus specified transitions, ready for minimization.

    Parameters
    ----------
    on, off:
        Multi-output covers of the ON and OFF sets.  Points in neither cover
        are don't-cares; a specified transition cube must be fully defined
        (every point ON or OFF for every output).
    transitions:
        The specified multiple-input changes (shared by all outputs).
    validate:
        When true (default) the constructor checks well-formedness:
        ON/OFF disjointness, full definedness on transition cubes, and
        function-hazard freedom of every (transition, output) pair.
    """

    def __init__(
        self,
        on: Cover,
        off: Cover,
        transitions: Sequence[Transition],
        name: str = "instance",
        validate: bool = True,
    ):
        if on.n_inputs != off.n_inputs or on.n_outputs != off.n_outputs:
            raise InstanceError("ON and OFF covers must share a shape")
        self.on = on
        self.off = off
        self.transitions = list(transitions)
        self.name = name
        self.n_inputs = on.n_inputs
        self.n_outputs = on.n_outputs
        self._on_by_output = [on.restrict_to_output(j) for j in range(self.n_outputs)]
        self._off_by_output = [off.restrict_to_output(j) for j in range(self.n_outputs)]
        self._tables: Dict[Transition, _TransitionTable] = {}
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Function access
    # ------------------------------------------------------------------

    def on_for_output(self, j: int) -> Cover:
        """Single-output ON cover of output ``j``."""
        return self._on_by_output[j]

    def off_for_output(self, j: int) -> Cover:
        """Single-output OFF cover of output ``j``."""
        return self._off_by_output[j]

    def value(self, vec: Sequence[int], j: int) -> Optional[bool]:
        """Output ``j``'s value on an input vector (None = don't-care)."""
        if self._on_by_output[j].evaluate(vec):
            return True
        if self._off_by_output[j].evaluate(vec):
            return False
        return None

    def _table(self, transition: Transition) -> _TransitionTable:
        """The memoized mask table of ``transition``."""
        table = self._tables.get(transition)
        if table is None:
            table = self._tables[transition] = _TransitionTable(
                transition,
                [(c.inbits, c.outbits) for c in self.on.cubes],
                [(c.inbits, c.outbits) for c in self.off.cubes],
                self.n_outputs,
            )
        return table

    def kind(self, transition: Transition, j: int) -> TransitionKind:
        """The transition type of output ``j`` over ``transition``."""
        kind = self._table(transition).kinds[j]
        if kind is None:
            raise InstanceError(
                f"transition {transition} endpoint undefined for output {j}"
            )
        return kind

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the preconditions of the hazard-free minimization model."""
        n01 = mask01(self.n_inputs)
        for j in range(self.n_outputs):
            off_j = [o.inbits for o in self._off_by_output[j]]
            for c in self._on_by_output[j]:
                for o in off_j:
                    meet = c.inbits & o
                    if not ~(meet | meet >> 1) & n01:
                        raise InstanceError(
                            f"ON and OFF sets of output {j} intersect: "
                            f"{c.input_string()} ∩ "
                            f"{Cube(self.n_inputs, o).input_string()}"
                        )
        for t in self.transitions:
            if len(t.start) != self.n_inputs:
                raise InstanceError(f"transition {t} has wrong width")
            table = self._table(t)
            m01 = table.m01
            for j in range(self.n_outputs):
                on_j, off_j = table.on[j], table.off[j]
                if not covered(m01 * 3, on_j + off_j, m01):
                    raise InstanceError(
                        f"function not fully defined on {t} for output {j}"
                    )
                if not hazard_free_rows(table.kinds[j], on_j, off_j, m01):
                    raise InstanceError(
                        f"transition {t} has a function hazard on output {j}"
                    )

    # ------------------------------------------------------------------
    # Derived sets (memoized)
    # ------------------------------------------------------------------

    def required_cubes(self) -> List[RequiredCube]:
        """The set ``Q`` of required cubes over all outputs (Definition 2.9)."""
        if not hasattr(self, "_required"):
            required: List[RequiredCube] = []
            seen = set()
            for t in self.transitions:
                table = self._table(t)
                m01 = table.m01
                for j in range(self.n_outputs):
                    kind = self.kind(t, j)
                    if kind is TransitionKind.STATIC_ONE:
                        cubes = [t.cube]
                    elif kind is TransitionKind.FALLING:
                        cubes = maximal_subcubes(
                            t.start, t.changing, [~v & m01 for v in table.off[j]]
                        )
                    elif kind is TransitionKind.RISING:
                        cubes = maximal_subcubes(
                            t.end, t.changing, [~(v >> 1) & m01 for v in table.off[j]]
                        )
                    else:
                        continue
                    for c in cubes:
                        key = (c.inbits, j)
                        if key not in seen:
                            seen.add(key)
                            required.append(RequiredCube(c, j, t))
            self._required = required
        return list(self._required)

    def privileged_cubes(self) -> List[PrivilegedCube]:
        """The set ``P`` of privileged cubes over all outputs (Definition 2.10)."""
        if not hasattr(self, "_privileged"):
            privileged: List[PrivilegedCube] = []
            seen = set()
            for t in self.transitions:
                for j in range(self.n_outputs):
                    kind = self.kind(t, j)
                    if kind is TransitionKind.FALLING:
                        start = t.start
                    elif kind is TransitionKind.RISING:
                        start = t.end
                    else:
                        continue
                    key = (t.cube.inbits, start, j)
                    if key not in seen:
                        seen.add(key)
                        falling = kind is TransitionKind.FALLING
                        norm = t if falling else t.reversed()
                        privileged.append(
                            PrivilegedCube(t.cube, norm.start_cube(), j, norm)
                        )
            self._privileged = privileged
        return list(self._privileged)

    def privileged_for_output(self, j: int) -> List[PrivilegedCube]:
        """Privileged cubes restricted to output ``j``."""
        return [p for p in self.privileged_cubes() if p.output == j]

    def required_for_output(self, j: int) -> List[RequiredCube]:
        """Required cubes restricted to output ``j``."""
        return [q for q in self.required_cubes() if q.output == j]

    # ------------------------------------------------------------------

    def restrict_to_output(self, j: int) -> "HazardFreeInstance":
        """A single-output instance for output ``j`` (shared transitions)."""
        inst = HazardFreeInstance(
            self._on_by_output[j],
            self._off_by_output[j],
            self.transitions,
            name=f"{self.name}.out{j}",
            validate=False,
        )
        return inst

    def __repr__(self) -> str:
        return (
            f"HazardFreeInstance({self.name}: {self.n_inputs} in / "
            f"{self.n_outputs} out, {len(self.transitions)} transitions)"
        )
