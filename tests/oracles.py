"""Independent reference implementations and random-instance generators.

Everything here recomputes results from first principles (recursion,
exhaustive enumeration over permutations or integer vectors) so the
library's fast paths are checked against genuinely separate code.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

from indivisible import Game, OwnerList, coalition, make_game, members


def dividends_recursive(g: Game) -> list[Fraction]:
    """Dividends via the defining recursion: worth minus sub-coalition surpluses."""
    out = [Fraction(0)] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        d = g.values[mask]
        sub = (mask - 1) & mask
        while sub:
            d -= out[sub]
            sub = (sub - 1) & mask
        out[mask] = d
    return out


def shapley_by_permutations(g: Game) -> list[Fraction]:
    """Shapley value by averaging marginals over every player ordering.

    Denominators are cleared first so the n! inner loop runs on plain ints.
    """
    scale = math.lcm(*(v.denominator for v in g.values))
    table = [int(v * scale) for v in g.values]
    totals = [0] * g.n
    count = 0
    for perm in permutations(range(g.n)):
        count += 1
        mask = 0
        prev = 0
        for p in perm:
            mask |= 1 << p
            cur = table[mask]
            totals[p] += cur - prev
            prev = cur
    return [Fraction(t, scale * count) for t in totals]


def enumerate_integer_core(g: Game) -> list[tuple[int, ...]]:
    """Every integer payoff vector in the core, by bounded enumeration.

    Core membership forces v({i}) <= x_i <= v(N) - v(N - {i}); vectors in
    that box summing to v(N) are filtered through the core inequalities.
    """
    grand = g.grand_value
    if grand.denominator != 1:
        return []
    lows = [math.ceil(g.values[1 << i]) for i in range(g.n)]
    highs = [math.floor(grand - g.values[g.full ^ (1 << i)]) for i in range(g.n)]
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return []
    found = []

    def recurse(i: int, left: Fraction, partial: list[int]):
        if i == g.n:
            if left == 0 and _respects_core(g, partial):
                found.append(tuple(partial))
            return
        tail_low = sum(lows[i + 1 :])
        tail_high = sum(highs[i + 1 :])
        for x in range(lows[i], highs[i] + 1):
            rest = left - x
            if rest < tail_low or rest > tail_high:
                continue
            partial.append(x)
            recurse(i + 1, rest, partial)
            partial.pop()

    recurse(0, grand, [])
    return found


def _respects_core(g: Game, x) -> bool:
    for mask in range(1, 1 << g.n):
        total = 0
        for i in members(mask):
            total += x[i]
        if total < g.values[mask]:
            return False
    return True


def is_supermodular(g: Game) -> bool:
    """Convexity by definition: v(A) + v(B) <= v(A | B) + v(A & B) for every
    pair of coalitions, O(4^n)."""
    v = g.values
    size = 1 << g.n
    for a in range(size):
        for b in range(a + 1, size):
            if v[a] + v[b] > v[a | b] + v[a & b]:
                return False
    return True


def random_game(rng: random.Random, n: int, denominator: int = 4) -> Game:
    """Arbitrary game with small rational values (may be wildly non-convex)."""
    entries = [
        (mask, Fraction(rng.randint(-3 * denominator, 3 * denominator), denominator))
        for mask in range(1, 1 << n)
    ]
    return make_game(n, entries)


def random_positive_int_game(rng: random.Random, n: int, density: float = 0.35) -> Game:
    """Positive integer game from sparse nonnegative integer dividends."""
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        if rng.random() < density:
            d = rng.randint(1, 3)
            # add the unanimity contribution to every superset
            rest = ((1 << n) - 1) ^ mask
            sub = rest
            while True:
                table[mask | sub] += d
                if sub == 0:
                    break
                sub = (sub - 1) & rest
    return make_game(n, [(m, Fraction(v)) for m, v in enumerate(table) if m and v])


def random_convex_int_game(rng: random.Random, n: int) -> Game:
    """Convex integer game: positive part plus a modular offset with
    possibly negative singleton weights (kept nonnegative at the top)."""
    while True:
        g = random_positive_int_game(rng, n)
        weights = [rng.randint(-1, 1) for _ in range(n)]
        entries = []
        for mask in range(1, 1 << n):
            v = g.values[mask] + sum(weights[i] for i in members(mask))
            if v:
                entries.append((mask, v))
        cand = make_game(n, entries)
        if cand.grand_value >= 0:
            return cand


def random_sizebounded_convex_int_game(rng: random.Random, n: int) -> Game:
    """Convex integer game with every nonempty coalition worth less than its size."""
    while True:
        table = [0] * (1 << n)
        # a few sparse unit dividends on larger coalitions keep values small
        for _ in range(rng.randint(1, n)):
            size = rng.randint(2, n)
            mask = coalition(rng.sample(range(n), size))
            rest = ((1 << n) - 1) ^ mask
            sub = rest
            while True:
                table[mask | sub] += 1
                if sub == 0:
                    break
                sub = (sub - 1) & rest
        if all(table[m] < m.bit_count() for m in range(1, 1 << n)):
            return make_game(n, [(m, Fraction(v)) for m, v in enumerate(table) if m and v])


def random_fractional_game(rng: random.Random, n: int, denominator: int = 4) -> Game:
    """Fractional game with integer grand value; interior values arbitrary."""
    entries = []
    for mask in range(1, (1 << n) - 1):
        entries.append((mask, Fraction(rng.randint(-2 * denominator, 3 * denominator), denominator)))
    grand = Fraction(rng.randint(0, n))
    entries.append(((1 << n) - 1, grand))
    return make_game(n, entries)


def random_owner_list(rng: random.Random, n: int, max_objects: int = 8) -> OwnerList:
    owners = []
    for _ in range(rng.randint(1, max_objects)):
        size = rng.randint(1, n)
        owners.append(coalition(rng.sample(range(n), size)))
    return OwnerList(n, tuple(owners))


def floor_half_game() -> Game:
    """Four players; every coalition is worth half its size, rounded down."""
    return make_game(4, [(m, Fraction(m.bit_count() // 2)) for m in range(1, 16)])


def two_goods_game() -> Game:
    """Players 0-2 jointly create two goods, players 3-4 one more."""
    entries = []
    for mask in range(1, 32):
        v = 0
        if mask & 0b00111 == 0b00111:
            v += 2
        if mask & 0b11000 == 0b11000:
            v += 1
        if v:
            entries.append((mask, Fraction(v)))
    return make_game(5, entries)


FIVE_PLAYER_OWNERS = OwnerList(
    5,
    (
        coalition([0, 1, 2]),
        coalition([0, 1, 4]),
        coalition([2, 3]),
        coalition([2, 3, 4]),
    ),
)
