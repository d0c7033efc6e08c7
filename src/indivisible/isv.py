"""The indivisible Shapley value: integer payoffs via iterated reductions.

The solver assigns every player the floor of their Shapley value, strips
exactly-integer players out through 0-reductions, rounds the remaining
table down, and then hands out the leftover units one at a time through
1-reductions, always scanning players in decreasing order of their Shapley
remainder.  Ties in the remainder order are broken toward the lower player
index, both when the order is built and in every scan; this is the one
degree of freedom the construction leaves open and fixing it makes runs
reproducible.

For convex integer games the result is the lexicographically maximal
quota-respecting core vector with respect to that order, which the
brute-force oracle below checks directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import sub
from typing import Sequence

from .errors import EmptyFeasibleSet, InvalidRange, LengthMismatch, NotIndivisible
from .games import (
    Game,
    IntVector,
    RationalTable,
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
    after the value-floor step and after every reduction, each tagged with
    the original labels of its surviving players.
    """

    payoffs: IntVector
    trace: tuple[tuple[str, int, int], ...]
    games: tuple[tuple[tuple[int, ...], Game], ...] | None = None


def remainder_order(sv: Sequence[Fraction]) -> tuple[int, ...]:
    """Players sorted by Shapley remainder, largest first, index breaking ties."""
    return tuple(sorted(range(len(sv)), key=lambda i: (-(sv[i] - math.floor(sv[i])), i)))


def indivisible_shapley(g: Game, *, record_games: bool = False) -> IsvResult:
    """Integer payoff vector satisfying Efficiency and both quota bounds."""
    grand = g.grand_value
    if grand.denominator != 1 or grand < 0:
        raise NotIndivisible(
            f"grand coalition must be worth a nonnegative integer, got {grand}"
        )
    sv = shapley_exact(g)
    order = remainder_order(sv)
    floors = [math.floor(s) for s in sv]
    trace: list[tuple[str, int, int]] = [(FLOOR, i, floors[i]) for i in range(g.n)]

    # subtract the additive floor game pointwise
    den = g.values.den
    floor_sums = coalition_sums([f * den for f in floors])
    cur = Game(g.n, RationalTable(map(sub, g.values.nums, floor_sums), den))
    alive = list(range(g.n))

    # strip players whose Shapley value was already an integer
    for p in range(g.n):
        if sv[p] == floors[p]:
            cur, _ = reduced_game(cur, alive.index(p), Fraction(0))
            alive.remove(p)
            trace.append((REMOVED, p, 0))

    # round the remaining table down; a no-op for integer games
    cur = floor_values(cur)
    games_log = [(tuple(alive), cur)] if record_games else None

    payoffs = floors
    while cur.grand_value > 0:
        sv_cur = shapley_exact(cur)
        nums, den = cur.values.nums, cur.values.den
        grand_cur = nums[cur.full]
        pick = -1
        for p in order:
            if p not in alive:
                continue
            li = alive.index(p)
            if grand_cur >= nums[cur.full ^ (1 << li)] + den or sv_cur[li] > 0:
                pick = p
                break
        if pick < 0:  # impossible: Shapley values sum to the positive grand value
            raise AssertionError("no grantable player in a game with positive value")
        cur, _ = reduced_game(cur, alive.index(pick), Fraction(1))
        alive.remove(pick)
        payoffs[pick] += 1
        trace.append((GRANTED, pick, 1))
        if games_log is not None:
            games_log.append((tuple(alive), cur))

    return IsvResult(
        payoffs=tuple(payoffs),
        trace=tuple(trace),
        games=tuple(games_log) if games_log is not None else None,
    )


def isv_oracle_convex(g: Game) -> IntVector:
    """Brute-force reference for convex integer games.

    Enumerates every integer vector whose entries are the floor or ceiling
    of the players' Shapley values, keeps the efficient ones that lie in
    the core, and returns the lexicographic maximum with respect to the
    remainder order.  Exponential; intended for small test games only.
    """
    grand = g.grand_value
    if grand.denominator != 1:
        raise NotIndivisible(f"grand coalition must be worth an integer, got {grand}")
    sv = shapley_exact(g)
    order = remainder_order(sv)
    choices = [sorted({math.floor(s), math.ceil(s)}) for s in sv]
    best = None
    best_key = None
    for cand in product(*choices):
        if sum(cand) != grand:
            continue
        if not in_core(g, cand):
            continue
        key = tuple(cand[p] for p in order)
        if best_key is None or key > best_key:
            best, best_key = cand, key
    if best is None:
        raise EmptyFeasibleSet("no quota-respecting core vector exists")
    return best


def lp_distance(x: Sequence[int], sv: Sequence[Fraction], p: int) -> Fraction:
    """The p-th power of the L^p distance between an integer vector and a
    Shapley vector, in exact arithmetic."""
    if len(x) != len(sv):
        raise LengthMismatch(f"vectors of length {len(x)} and {len(sv)}")
    if p < 1:
        raise InvalidRange(f"exponent must be a positive integer, got {p}")
    return sum((abs(Fraction(s) - xi) ** p for s, xi in zip(sv, x)), Fraction(0))
