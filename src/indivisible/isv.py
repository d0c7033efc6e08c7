"""The indivisible Shapley value: integer payoffs via iterated reductions.

The solver assigns every player the floor of their Shapley value, rounds
the table down once and subtracts those floors, strips the players whose
value is whole out through 0-reductions, and then hands out the leftover
units one at a time through 1-reductions, always scanning players in
decreasing order of their Shapley remainder.  Ties in the remainder order
are broken toward the lower player index, both when the order is built and
in every scan; this is the one degree of freedom the construction leaves
open and fixing it makes runs reproducible.  ``_remainder_order`` is the
one place that builds that order: it lists only the players left with a
fraction, the ones that can round up, and the solver, the convex reference
below and ``matching.isv_allocation`` all read it as it is.

A unit goes to the first player in that order whose marginal value to the
working grand coalition is at least 1 (the upper-quota test) or, failing
that, whose Shapley value in the working game is positive.  The working
game's Shapley value is computed only once a quota test fails, at most
once per grant, and reused for the rest of that grant's scan.

For convex integer games the result is the lexicographically maximal
quota-respecting core vector with respect to that order, which the
reference below checks by stopping at the first core vector in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import sub
from typing import Sequence

from .errors import EmptyFeasibleSet, LengthMismatch, NotIndivisible
from .games import (
    Game,
    IntVector,
    RationalTable,
    _as_fraction,
    _shown,
    _whole,
    coalition_sums,
    floor_values,
    in_core,
    reduced_game,
    shapley_exact,
)

# trace event kinds
FLOOR = "floor"
REMOVED = "removed"
GRANTED = "granted"


@dataclass(frozen=True)
class IsvResult:
    """Integer payoffs plus the ordered trace of how they were assigned.

    Trace events are ``(kind, player, amount)`` with the original player
    index; summing the amounts per player reproduces ``payoffs``.  When
    built with ``record_games=True``, ``games`` holds the working game
    once the whole-valued players are removed and after every grant, each
    tagged with the original labels of its surviving players.
    """

    payoffs: IntVector
    trace: tuple[tuple[str, int, int], ...]
    games: tuple[tuple[tuple[int, ...], Game], ...] | None = None


def _remainder_order(nums: Sequence[int], den: int) -> tuple[int, ...]:
    """The players whose share ``nums[i] / den`` is not whole, by its
    remainder, largest first, index breaking ties: the order in which every
    solver hands out the units left over once each player has its floor."""
    fractional = [i for i, x in enumerate(nums) if x % den]
    return tuple(sorted(fractional, key=lambda i: (-(nums[i] % den), i)))


def remainder_order(sv: Sequence[Fraction]) -> tuple[int, ...]:
    """Players sorted by Shapley remainder, largest first, index breaking
    ties; the players whose value is whole come last, by index."""
    table = RationalTable.of(sv)
    order = _remainder_order(table.nums, table.den)
    return order + tuple(sorted(set(range(len(table))).difference(order)))


def _units(g: Game) -> int:
    """The grand coalition's value as a count of indivisible units; raises
    ``NotIndivisible`` unless it is a nonnegative integer."""
    grand = g.grand_value
    if grand.denominator != 1 or grand < 0:
        raise NotIndivisible(
            f"grand coalition must be worth a nonnegative integer, got {_shown(grand, str)}"
        )
    return int(grand)


def indivisible_shapley(g: Game, *, record_games: bool = False) -> IsvResult:
    """Integer payoff vector satisfying Efficiency and both quota bounds."""
    _units(g)
    sv = RationalTable.of(shapley_exact(g))
    floors = [x // sv.den for x in sv.nums]
    trace: list[tuple[str, int, int]] = [(FLOOR, i, floors[i]) for i in range(g.n)]

    # round once and subtract the whole floor game F: floor(v - F) = floor(v) - F,
    # and a 0-reduction keeps v(N) and takes max(v(S), v(S + i)) elsewhere, so
    # with floor(max(a, b)) = max(floor(a), floor(b)) rounding first changes nothing
    cur = Game(g.n, RationalTable(map(sub, floor_values(g).values.nums, coalition_sums(floors))))
    alive = list(range(g.n))
    order = list(_remainder_order(sv.nums, sv.den))

    # strip players whose Shapley value was already an integer
    for p in range(g.n):
        if p not in order:
            cur, _ = reduced_game(cur, alive.index(p), Fraction(0))
            alive.remove(p)
            trace.append((REMOVED, p, 0))

    games_log = [(tuple(alive), cur)] if record_games else None

    payoffs = floors
    while cur.grand_value > 0:
        nums = cur.values.nums
        sv_cur = None
        for p in order:
            li = alive.index(p)
            if nums[cur.full] > nums[cur.full ^ (1 << li)]:
                break
            # the quota test failed: only now is the working game's value read
            sv_cur = sv_cur or shapley_exact(cur)
            if sv_cur[li] > 0:
                break
        else:  # impossible: Shapley values sum to the positive grand value
            raise AssertionError("no grantable player in a game with positive value")
        cur, _ = reduced_game(cur, li, Fraction(1))
        alive.remove(p)
        order.remove(p)
        payoffs[p] += 1
        trace.append((GRANTED, p, 1))
        if games_log is not None:
            games_log.append((tuple(alive), cur))

    return IsvResult(
        payoffs=tuple(payoffs),
        trace=tuple(trace),
        games=tuple(games_log) if games_log is not None else None,
    )


def isv_oracle_convex(g: Game) -> IntVector:
    """Reference for convex integer games.

    Tries the efficient floor/ceiling vectors in remainder order,
    lexicographically largest first, and returns the first one in the core:
    the lexicographic maximum of the quota-respecting core vectors.  Without
    one, it tries all of them, exponentially many, before raising
    ``EmptyFeasibleSet``.
    """
    units = _units(g)
    sv = RationalTable.of(shapley_exact(g))
    floors = [x // sv.den for x in sv.nums]
    fractional = _remainder_order(sv.nums, sv.den)
    # efficiency makes the leftover a whole number from 0 to len(fractional)
    for ups in combinations(fractional, units - sum(floors)):
        cand = [f + (p in ups) for p, f in enumerate(floors)]
        if in_core(g, cand):
            return tuple(cand)
    raise EmptyFeasibleSet("no quota-respecting core vector exists")


def lp_distance(x: Sequence[int], sv: Sequence[Fraction], p: int) -> Fraction:
    """The p-th power of the L^p distance between an integer vector and a
    Shapley vector, in exact arithmetic."""
    if len(x) != len(sv):
        raise LengthMismatch(f"vectors of length {len(x)} and {len(sv)}")
    power = _whole(p, "exponent", 1)
    diffs = (abs(_as_fraction(s) - _as_fraction(xi)) for s, xi in zip(sv, x))
    return sum((d**power for d in diffs), Fraction(0))
