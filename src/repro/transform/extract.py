"""Function extraction: recover ON/OFF covers from a netlist.

The detector and the ``u(f)`` transform both need the boolean *function*
a netlist implements, as covers.  For a netlist that came from a cover we
already have it; for a foreign ``.net`` circuit we recover it by a single
bit-plane sweep over all ``2^n`` input vectors (gated by ``max_inputs``
— foreign netlists are interface traffic, not 32-input benchmarks) and
then compact the minterm sets through the unate-recursive complement,
which keeps the downstream cofactor/tautology stability checks cheap.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.detect.netlist import Netlist, NetlistError
from repro.espresso.complement import complement

#: Extraction is exponential in the input count; refuse beyond this.
DEFAULT_MAX_INPUTS = 14


def extract_covers(
    netlist: Netlist, max_inputs: int = DEFAULT_MAX_INPUTS
) -> Tuple[Cover, Cover]:
    """Multi-output ``(on, off)`` covers of the function the netlist
    computes (fully defined: every vector is in exactly one of the two).

    Raises :class:`NetlistError` when the netlist is too wide to
    enumerate.
    """
    n = netlist.n_inputs
    if n > max_inputs:
        raise NetlistError(
            f"{netlist.name}: function extraction enumerates 2^{n} "
            f"vectors; refusing beyond {max_inputs} inputs"
        )
    n_out = netlist.n_outputs
    # One bit-plane sweep over all 2^n vectors: bit v is the v-th vector
    # of itertools.product((0, 1), repeat=n), so input i is 1 in the
    # upper half of every period of 2^(n - i) vectors.
    size = 1 << n
    ones = (1 << size) - 1
    inputs = []
    for i in range(n):
        half = 1 << (n - 1 - i)
        period = ((1 << half) - 1) << half
        may1 = period * (ones // ((1 << (2 * half)) - 1))
        inputs.append((ones & ~may1, may1))
    planes = netlist.eval_planes(inputs, ones)
    out_planes = [planes[o][1] for o in netlist.outputs]
    on_minterms: List[List[Cube]] = [[] for _ in range(n_out)]
    for v, vec in enumerate(itertools.product((0, 1), repeat=n)):
        for j in range(n_out):
            if out_planes[j] >> v & 1:
                on_minterms[j].append(Cube.minterm(vec))
    on = Cover(n, (), n_out)
    off = Cover(n, (), n_out)
    for j in range(n_out):
        on_j = Cover(n, on_minterms[j], 1)
        off_j = complement(on_j)
        # Re-complementing the compact OFF cover compacts ON as well.
        on_j = complement(off_j) if on_j.cubes else on_j
        for c in on_j:
            on.append(Cube(n, c.inbits, 1 << j, n_out))
        for c in off_j:
            off.append(Cube(n, c.inbits, 1 << j, n_out))
    return on, off
