"""r-neighbor bootstrap percolation closure with full round tracking.

Rounds are simultaneous: round 0 is the seed set, and a healthy vertex joins
round t+1 exactly when it is still uninfected after round t and at least r of
its neighbors are infected.  Polluted vertices never become infected.

Each round moves the whole board at once: the infected bitmask is shifted
one step in each direction, the four shifted masks give the cells with at
least r infected neighbors, and the healthy ones among them join.  A round
is a fixed number of O(mn / word size) big-int operations, so a closure
costs O(rounds * mn / word size), at most O(mn^2 / word size).

Every closure runs through :func:`closure_mask`, which :func:`percolate` and
:func:`is_percolating` call once they have checked their inputs.  One loop
computes the four shifted masks and the count inline, for a grid or for a
torus, and every r from 1 to 4; no cell has five neighbors, so at r >= 5 the
seeds are their own closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, ParameterError
from .grid import CellSet, PollutedInstance, Shifts


@dataclass(frozen=True)
class PercolationTrace:
    """Round-by-round infection history.

    ``rounds[0]`` is the seed set; each later entry holds only the cells newly
    infected that round and is nonempty.  ``round_count`` counts propagation
    rounds beyond the seeds, so ``round_count == len(rounds) - 1``.  The
    instance rides along so renderers can tell polluted cells from healthy
    cells the infection never reached.
    """

    instance: PollutedInstance
    rounds: tuple[CellSet, ...]
    final: CellSet
    percolated: bool
    round_count: int


def _check_inputs(instance: PollutedInstance, seeds: CellSet, r: int) -> None:
    if r < 1:
        raise ParameterError(f"infection threshold must be >= 1, got {r}")
    if seeds.spec != instance.spec:
        raise ParameterError("seed set belongs to a different board")
    if seeds.mask & instance.polluted.mask:
        raise InvariantError("seeds must avoid polluted vertices")


def closure_mask(
    shifts: Shifts, blocked: int, seed_mask: int, r: int, rounds: list[int] | None = None
) -> int:
    """The closure of ``seed_mask`` on raw bitmasks, ``blocked`` marking polluted cells.

    No validation: tight search loops call it directly, and ``blocked`` and
    ``seed_mask`` must lie on the board.  Each round's newly infected mask is
    appended to ``rounds`` if given.
    """
    m, size, full, first, last, not_first, not_last, wrap = shifts
    infected = seed_mask
    if r > 4:
        return infected
    healthy = full ^ (blocked | seed_mask)
    turn, back = m - 1, size - m
    while True:
        if wrap:
            # the board twice over: one shift of it turns the board a row up or down
            both = infected | infected << size
            a = (infected & not_last) << 1 | (infected & last) >> turn
            b = (infected & not_first) >> 1 | (infected & first) << turn
            c = both >> back
            d = both >> m
        else:
            a = (infected & not_last) << 1
            b = (infected & not_first) >> 1
            c = infected << m
            d = infected >> m
        if r == 2:
            new = (a & b | c & d | (a | b) & (c | d)) & healthy
        elif r == 3:
            new = (a & b & (c | d) | c & d & (a | b)) & healthy
        elif r == 1:
            new = (a | b | c | d) & healthy
        else:
            new = a & b & c & d & healthy
        if not new:
            return infected
        infected |= new
        healthy ^= new
        if rounds is not None:
            rounds.append(new)


def percolate(instance: PollutedInstance, seeds: CellSet, r: int = 2) -> PercolationTrace:
    """Run the process to its fixpoint and return the full trace."""
    _check_inputs(instance, seeds, r)
    spec = instance.spec
    round_masks = [seeds.mask]
    final_mask = closure_mask(Shifts.of(spec), instance.polluted.mask, seeds.mask, r, round_masks)
    return PercolationTrace(
        instance=instance,
        rounds=tuple(CellSet(spec, mask) for mask in round_masks),
        final=CellSet(spec, final_mask),
        percolated=final_mask == instance.residual.mask,
        round_count=len(round_masks) - 1,
    )


def is_percolating(instance: PollutedInstance, seeds: CellSet, r: int = 2) -> bool:
    """True iff the closure infects every residual vertex.  Skips trace bookkeeping."""
    _check_inputs(instance, seeds, r)
    final_mask = closure_mask(Shifts.of(instance.spec), instance.polluted.mask, seeds.mask, r)
    return final_mask == instance.residual.mask
