"""Independent reference implementations and random-instance generators.

Everything here recomputes results from first principles (recursion,
exhaustive enumeration over permutations or integer vectors) so the
library's fast paths are checked against genuinely separate code.
"""

from __future__ import annotations

import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product
from operator import sub

from indivisible import (
    Game,
    IsvResult,
    OwnerList,
    RegionalVotes,
    coalition,
    dhondt,
    in_core,
    make_game,
    members,
    reduced_game,
    remainder_order,
    shapley_exact,
)
from indivisible.errors import EmptyFeasibleSet, NotIndivisible, ParseError
from indivisible.formats import _parse_fraction, _read_header
from indivisible.games import (
    MAX_TABLE_PLAYERS,
    RationalTable,
    _check_player_count,
    _shown,
    coalition_sums,
    floor_values,
    game_from_weights,
)
from indivisible.isv import FLOOR, GRANTED, REMOVED


@contextmanager
def within(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed."""

    def past_deadline(signum, frame):
        raise TimeoutError(f"the call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, past_deadline)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def isv_by_enumeration(g: Game) -> tuple[int, ...]:
    """The lexicographic maximum, in remainder order, of the quota-respecting
    core vectors, found by trying every floor/ceiling vector; raises as
    ``isv_oracle_convex`` does."""
    grand = g.grand_value
    if grand.denominator != 1 or grand < 0:
        raise NotIndivisible(f"grand coalition is worth {grand}")
    sv = shapley_exact(g)
    order = sorted(range(g.n), key=lambda i: (-(sv[i] - math.floor(sv[i])), i))
    choices = [sorted({math.floor(s), math.ceil(s)}) for s in sv]
    feasible = [x for x in product(*choices) if sum(x) == grand and in_core(g, x)]
    if not feasible:
        raise EmptyFeasibleSet("no quota-respecting core vector exists")
    return max(feasible, key=lambda x: [x[p] for p in order])


def isv_by_reductions(g: Game, *, record_games: bool = False) -> IsvResult:
    """``indivisible_shapley`` as the paper states it: the working game's
    whole Shapley vector before every grant, then the first player in
    remainder order who passes the upper-quota test or has a positive
    Shapley value."""
    grand = g.grand_value
    if grand.denominator != 1 or grand < 0:
        raise NotIndivisible(
            f"grand coalition must be worth a nonnegative integer, got {_shown(grand, str)}"
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


def coalition_seats_by_dhondt(rv: RegionalVotes, parties, outsiders, mask: int) -> int:
    """Seats the coalition ``mask`` over ``parties`` wins as one merged list:
    one D'Hondt run per region, skipping a region where nobody has a vote."""
    total = 0
    for region, outs in zip(rv.regions, outsiders):
        merged = sum(region.votes[p] for k, p in enumerate(parties) if mask >> k & 1)
        if merged or any(outs):
            total += dhondt([merged, *outs], region.seats)[0]
    return total


def coalition_game_by_dhondt(rv: RegionalVotes, parties, outsiders) -> Game:
    """The regional coalition game with one D'Hondt run per (coalition, region)."""
    parties = tuple(parties)
    return Game(
        len(parties),
        RationalTable(
            coalition_seats_by_dhondt(rv, parties, outsiders, mask)
            for mask in range(1 << len(parties))
        ),
    )


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def splitmix_permutation(n: int, seed: int, t: int) -> tuple[int, ...]:
    """The sampler's permutation ``t`` for ``seed``: Fisher-Yates driven by a
    counter-based splitmix64 stream, one step function call per swap."""
    state = ((seed & _MASK64) * 0xA24BAED4963EE407 + t * 0x9FB21C651E98DF25 + 1) & _MASK64
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        state, word = _splitmix64(state)
        j = word % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def _reference_indices(token: str, n: int, source: str, lineno: int) -> int:
    mask = 0
    prev = -1
    for part in token.split(","):
        try:
            idx = int(part)
        except ValueError:
            raise ParseError(source, lineno, f"bad player index {part!r}") from None
        if idx <= prev:
            raise ParseError(
                source, lineno, f"player indices must be strictly ascending, got {token!r}"
            )
        if idx < 0 or idx >= n:
            raise ParseError(source, lineno, f"player index {idx} outside 0..{n - 1}")
        prev = idx
        mask |= 1 << idx
    return mask


def reference_parse_game(text: str, source: str = "<game>") -> Game:
    """The game format read line by line: every index through ``int`` and
    every value through ``Fraction``, duplicates found in a dict, and the
    table put over the lcm of the values' denominators."""
    lines, _, n, _ = _read_header(text, "players", "game", source)
    _check_player_count(n, MAX_TABLE_PLAYERS)
    listed: dict[int, Fraction] = {}
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(source, lineno, f"expected '<players> <value>', got {line!r}")
        mask = _reference_indices(parts[0], n, source, lineno)
        if mask in listed:
            raise ParseError(source, lineno, f"coalition {parts[0]} listed twice")
        listed[mask] = _parse_fraction(parts[1], source, lineno)
    den = math.lcm(*{value.denominator for value in listed.values()})
    table = [0] * (1 << n)
    for mask, value in listed.items():
        table[mask] = value.numerator * (den // value.denominator)
    return Game(n, RationalTable(table, den))


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


def wide_convex_int_game(rng: random.Random, n: int) -> Game:
    """Convex integer game built in O(n 2^n), fast enough for 20 players:
    nonnegative integer dividends plus ``c * max(0, |S| - k)``, a convex
    function of the size whose dividends are partly negative."""
    dividends = [
        (coalition(rng.sample(range(n), rng.randint(1, n))), rng.randint(1, 3))
        for _ in range(2 * n)
    ]
    base = game_from_weights(n, dividends).values.nums
    c, k = rng.randint(1, 3), rng.randint(1, n)
    return Game(n, RationalTable(v + c * max(0, s.bit_count() - k) for s, v in enumerate(base)))


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


def sized_owner_list(rng: random.Random, n: int, objects: int) -> OwnerList:
    """Exactly ``objects`` objects, each owned by one to three players."""
    owners = [coalition(rng.sample(range(n), rng.randint(1, 3))) for _ in range(objects)]
    return OwnerList(n, tuple(owners))


def max_matching_size(copy_players, object_owners) -> int:
    """Maximum number of copies matched to distinct objects their player owns.

    Exhaustive: each copy in turn stays unmatched or takes any free owned
    object, memoized on (copy index, set of objects taken).
    """
    best: dict[tuple[int, int], int] = {}

    def search(i: int, taken: int) -> int:
        if i == len(copy_players):
            return 0
        key = (i, taken)
        if key not in best:
            out = search(i + 1, taken)
            for j, owners in enumerate(object_owners):
                if owners >> copy_players[i] & 1 and not taken >> j & 1:
                    out = max(out, 1 + search(i + 1, taken | 1 << j))
            best[key] = out
        return best[key]

    return search(0, 0)


def reference_allocation(ol: OwnerList) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Assignment and counts by the plainest augmenting search.

    Shapley shares are summed as fractions; each player gets its floor of
    copies, in player order, then one more copy per player with a
    remainder, largest remainder first and lower index breaking ties.
    Each copy searches breadth first over players from a fresh queue: a
    player is checked when it is dequeued, by scanning its objects from
    the lowest, and otherwise queues the holders of its objects in that
    order.  Copies of one player are interchangeable, so an object
    records only the player holding it.
    """
    objects_of: list[list[int]] = [[] for _ in range(ol.n)]
    sv = [Fraction(0)] * ol.n
    for j, mask in enumerate(ol.owners):
        for i in members(mask):
            objects_of[i].append(j)
            sv[i] += Fraction(1, mask.bit_count())
    holder: list[int | None] = [None] * len(ol.owners)

    def augment(start: int) -> bool:
        via: dict[int, tuple[int, int] | None] = {start: None}
        queue = [start]
        for player in queue:
            free = [j for j in objects_of[player] if holder[j] is None]
            if free:
                obj = free[0]
                while via[player] is not None:
                    held, taker = via[player]
                    holder[obj] = player
                    obj, player = held, taker
                holder[obj] = start
                return True
            for j in objects_of[player]:
                if holder[j] not in via:
                    via[holder[j]] = (j, player)
                    queue.append(holder[j])
        return False

    for i in range(ol.n):
        for _ in range(math.floor(sv[i])):
            assert augment(i), "floor copies admit no perfect matching"
    remainders = [i for i in range(ol.n) if sv[i] != math.floor(sv[i])]
    for i in sorted(remainders, key=lambda i: (math.floor(sv[i]) - sv[i], i)):
        augment(i)
    counts = [0] * ol.n
    for player in holder:
        counts[player] += 1
    return tuple(holder), tuple(counts)


def skewed_owner_list(rng: random.Random, n: int, objects: int) -> OwnerList:
    """``objects`` objects of one to three owners, four in five of them
    drawn from a random prefix of the players, so that many remainder
    searches find no path."""
    few = rng.randint(1, n)
    owners = []
    for _ in range(objects):
        pool = range(few) if rng.random() < 0.8 else range(n)
        size = rng.randint(1, min(3, len(pool)))
        owners.append(coalition(rng.sample(pool, size)))
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
