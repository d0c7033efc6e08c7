"""Exact coalitional games: construction, dividends, Shapley values, core tests.

Coalitions are bit sets stored as plain ints: bit ``i`` is player ``i``.
A game holds the full value table, one exact rational per coalition, so
every operation here is exact; nothing is rounded.  Full tables are capped
at :data:`MAX_TABLE_PLAYERS` players by default because the table has
``2**n`` entries.

Tables are stored as Python-int numerators over one positive common
denominator (:class:`RationalTable`), the smallest that serves every
entry, so equal tables hold equal numerators.  The transforms below run
on those ints; indexing a table still yields a :class:`~fractions.Fraction`,
and every public result is an exact rational as before.  Table-wide passes
work on a few long list slices per player (see :func:`_pairs`), so the
inner loops run in C.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, ge, mul, sub
from typing import Iterable, NamedTuple

from .errors import (
    DuplicateCoalition,
    EmptySupportCoalition,
    InvalidRange,
    LengthMismatch,
    NegativePayoff,
    NonzeroEmptySet,
    PlayerCountMismatch,
    PlayerOutOfRange,
    TooManyPlayers,
)

MAX_TABLE_PLAYERS = 20

RationalVector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def _shown(value, show=repr) -> str:
    """``show(value)`` for an error message, or, for an int or rational too
    long for Python to print, a short description of it."""
    try:
        return show(value)
    except ValueError:  # past the interpreter's limit on int digits
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def coalition(players: Iterable[int]) -> int:
    """Bit mask of the given player indices."""
    mask = 0
    for p in players:
        if not isinstance(p, int) or p < 0:
            raise PlayerOutOfRange(f"player index must be an int >= 0, got {_shown(p)}")
        try:
            mask |= 1 << p
        except OverflowError:  # an index beyond what a shift can take
            raise PlayerOutOfRange(f"player index {_shown(p)} is too large") from None
    return mask


def members(mask: int) -> tuple[int, ...]:
    """Players in the coalition, ascending."""
    if not isinstance(mask, int) or mask < 0:
        raise PlayerOutOfRange(f"coalition mask must be an int >= 0, got {_shown(mask)}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _as_fraction(x) -> Fraction:
    """``x`` as an exact rational: anything ``Fraction`` accepts, finite, and
    from a string only with an exponent of magnitude at most 4300."""
    try:
        if isinstance(x, str):
            exponent = x.upper().partition("E")[2]
            # Fraction expands any exponent exactly; 4300 is Python's cap on int digit strings
            if exponent and abs(int(exponent)) > 4300:
                raise ValueError(exponent)
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InvalidRange(f"not a finite rational: {_shown(x)}") from None


def _whole(x, what: str, least: int) -> int:
    """``x`` as an int, if it is a whole rational ``>= least``."""
    if type(x) is int and x >= least:  # not a bool, which takes the path below
        return x
    value = _as_fraction(x)
    if value.denominator != 1 or value < least:
        raise InvalidRange(f"{what} must be a whole number >= {least}, got {_shown(x)}")
    return int(value)


def _check_coalition(mask, n: int, what: str) -> None:
    """Accept only an int ``mask`` with ``0 <= mask < 2**n``."""
    if not isinstance(mask, int) or mask >> n:  # a negative mask shifts to -1
        raise PlayerOutOfRange(
            f"{what} mask {_shown(mask)} is not a coalition of players 0..{n - 1}"
        )


class RationalTable(Sequence):
    """An immutable sequence of exact rationals, ``nums[k] / den``.

    ``den`` is positive and as small as possible (the lcm of the entries'
    reduced denominators), so two tables are equal exactly when their
    numerators and denominators are.  Indexing and iteration yield
    ``Fraction`` objects; a table also compares equal to the tuple of the
    same rationals.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int], den: int = 1):
        nums = tuple(nums)
        common = math.gcd(den, *nums) if den != 1 else 1
        if common > 1:
            nums = tuple(x // common for x in nums)
            den //= common
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def of(cls, values: Iterable) -> RationalTable:
        """The table of the given rationals (ints, Fractions or anything
        ``Fraction`` accepts)."""
        if isinstance(values, cls):
            return values
        ratios = [_as_fraction(v).as_integer_ratio() for v in values]
        den = math.lcm(*{d for _, d in ratios})
        return cls((num * (den // d) for num, d in ratios), den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalTable is immutable")

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(Fraction, self.nums[index], repeat(self.den)))
        return Fraction(self.nums[index], self.den)

    def __iter__(self):
        return map(Fraction, self.nums, repeat(self.den))

    def __eq__(self, other):
        if isinstance(other, RationalTable):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self):
        # consistent with equality to the tuple of the same Fractions
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"RationalTable({list(self.nums)!r}, den={self.den})"


@dataclass(frozen=True)
class Game:
    """A coalitional game: player count plus a full table of exact values.

    ``values[mask]`` is the worth of the coalition encoded by ``mask``;
    ``values[0]`` is always zero.  Any sequence of rationals is accepted
    as ``values`` and stored as a :class:`RationalTable`.  Instances are
    immutable and safe to share between threads.
    """

    n: int
    values: RationalTable

    def __post_init__(self):
        object.__setattr__(self, "n", _whole(self.n, "player count", 0))
        values = RationalTable.of(self.values)
        object.__setattr__(self, "values", values)
        size = len(values)
        # past the table's bit length 1 << n exceeds its size anyway, and a huge n would not fit
        if size != 1 << min(self.n, size.bit_length()):
            raise LengthMismatch(f"value table has {size} entries, expected 2**{_shown(self.n)}")
        if values.nums[0] != 0:
            raise NonzeroEmptySet("the empty coalition must have value 0")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @property
    def grand_value(self) -> Fraction:
        return self.values[self.full]

    def value(self, mask: int) -> Fraction:
        return self.values[mask]


def _pairs(size: int, bit: int) -> list[tuple[slice, slice]]:
    """Slice pairs ``(lo, hi)`` over a table of ``size`` entries: ``hi``
    selects masks holding ``bit`` and ``lo`` the same masks without it, in
    step.  Together the ``hi`` slices cover every mask holding ``bit`` once.

    Low bits give ``bit`` strided slices, high bits ``size / (2 * bit)``
    contiguous blocks; the shorter list is used, at most ``sqrt(size)``.
    """
    step = bit << 1
    if bit * bit <= size >> 1:
        return [(slice(off, size, step), slice(off + bit, size, step)) for off in range(bit)]
    return [(slice(b, b + bit), slice(b + bit, b + step)) for b in range(0, size, step)]


def _split(table: Sequence[int], bit: int) -> tuple[list[int], list[int]]:
    """The entries of masks without ``bit`` and with it, each reindexed by
    the mask with ``bit`` removed (the other players renumbered densely)."""
    half = len(table) >> 1
    lo = [0] * half
    hi = [0] * half
    for lo_s, hi_s in _pairs(len(table), bit):
        k = lo_s.start
        dest = slice(k, half, bit) if lo_s.step else slice(k >> 1, (k >> 1) + bit)
        lo[dest] = table[lo_s]
        hi[dest] = table[hi_s]
    return lo, hi


def _sum_with(table: Sequence[int], bit: int) -> int:
    """Sum of the entries of masks holding ``bit``."""
    return sum(sum(table[hi]) for _, hi in _pairs(len(table), bit))


def _subset_transform(table: list[int], n: int, op) -> None:
    """In place: ``op=add`` gives every mask the sum over its subsets (zeta
    transform), ``op=sub`` inverts that (Moebius inversion).  O(n 2^n)."""
    for i in range(n):
        for lo, hi in _pairs(len(table), 1 << i):
            table[hi] = map(op, table[hi], table[lo])


def coalition_sums(x: Sequence[int]) -> list[int]:
    """Payoff of every coalition under vector ``x``, indexed by mask."""
    sums = [0]
    for xi in x:  # the masks holding player i are the earlier ones plus bit i
        sums += [s + xi for s in sums]
    return sums


def _check_player_count(n: int, max_players: int) -> int:
    """``n`` as an int, if it is a whole number from 1 to ``max_players``."""
    try:
        n = _whole(n, "player count", 1)
    except InvalidRange as exc:
        raise PlayerOutOfRange(*exc.args) from None
    if n > max_players:
        raise TooManyPlayers(
            f"full value tables support at most {max_players} players, got {_shown(n)}"
        )
    return n


def make_game(
    n: int,
    entries: Iterable[tuple[int, Fraction]] = (),
    *,
    max_players: int = MAX_TABLE_PLAYERS,
) -> Game:
    """Build a game from (coalition mask, value) pairs; unlisted coalitions are 0."""
    n = _check_player_count(n, max_players)
    nums = [0] * (1 << n)
    dens = [0] * (1 << n)
    for mask, value in _read_entries(n, entries).items():
        nums[mask], dens[mask] = value.as_integer_ratio()
    return _game_from_slots(n, nums, dens)


def _read_entries(n: int, entries: Iterable[tuple[int, Fraction]]) -> dict[int, Fraction]:
    """(mask, value) pairs as a dict, each mask a coalition of ``n`` players listed once."""
    listed: dict[int, Fraction] = {}
    for entry in entries:
        try:
            mask, value = entry
        except (TypeError, ValueError):  # not iterable, or not of length 2
            raise InvalidRange(f"entry must be a (mask, value) pair, got {_shown(entry)}") from None
        _check_coalition(mask, n, "coalition")
        if mask in listed:
            raise DuplicateCoalition(f"coalition {members(mask)} listed twice")
        listed[mask] = _as_fraction(value)
    return listed


def _game_from_slots(n: int, nums: list[int], dens: list[int]) -> Game:
    """The game worth ``nums[mask] / dens[mask]`` on each of the ``2**n`` masks,
    where a positive ``dens[mask]`` need not be in lowest terms and a zero
    one means the coalition is worth 0."""
    scales = set(dens)
    scales.discard(0)
    den = math.lcm(*scales)
    if den != 1:
        factor = {d: den // d for d in scales}
        factor[0] = 0  # unlisted slots stay 0
        nums = list(map(mul, nums, map(factor.__getitem__, dens)))
    return Game(n, RationalTable(nums, den))  # RationalTable reduces by the common gcd


def game_from_weights(
    n: int,
    weights: Iterable[tuple[int, int]],
    den: int = 1,
    *,
    max_players: int = MAX_TABLE_PLAYERS,
) -> Game:
    """The game whose Harsanyi dividends are the given weights over ``den``.

    ``weights`` holds (nonempty coalition mask, integer weight) pairs;
    repeated masks add up.  Each coalition is worth the total weight of its
    sub-coalitions, computed by one subset-sum (zeta) transform in
    O(n 2^n).  Masks must lie in ``1 .. 2**n - 1``.
    """
    n = _check_player_count(n, max_players)
    table = [0] * (1 << n)
    for mask, w in weights:
        table[mask] += w
    _subset_transform(table, n, add)
    return Game(n, RationalTable(table, den))


def unanimity_game(n: int, support: int, *, max_players: int = MAX_TABLE_PLAYERS) -> Game:
    """The game worth 1 on every superset of ``support`` and 0 elsewhere."""
    if support == 0:
        raise EmptySupportCoalition("unanimity games need a nonempty support coalition")
    n = _check_player_count(n, max_players)
    _check_coalition(support, n, "support")
    return Game(n, RationalTable(int(mask & support == support) for mask in range(1 << n)))


def game_linear(a: Fraction, g1: Game, b: Fraction, g2: Game) -> Game:
    """Pointwise combination ``a*g1 + b*g2`` of two games on the same players."""
    if g1.n != g2.n:
        raise PlayerCountMismatch(f"cannot combine games on {g1.n} and {g2.n} players")
    a = _as_fraction(a)
    b = _as_fraction(b)
    t1, t2 = g1.values, g2.values
    den1 = a.denominator * t1.den
    den2 = b.denominator * t2.den
    den = math.lcm(den1, den2)
    ka = a.numerator * (den // den1)
    kb = b.numerator * (den // den2)
    return Game(g1.n, RationalTable((ka * x + kb * y for x, y in zip(t1.nums, t2.nums)), den))


def harsanyi_dividends(g: Game) -> RationalTable:
    """Harsanyi dividend of every coalition, indexed by mask, as a table.

    Computed by Moebius inversion over the subset lattice; rebuilding the
    game as a dividend-weighted sum of unanimity games reproduces every
    table entry exactly.
    """
    d = list(g.values.nums)
    _subset_transform(d, g.n, sub)
    return RationalTable(d, g.values.den)


def _size_weighted(dividends: RationalTable, n: int, per_size: list[int]) -> list[int]:
    """Dividend numerators each multiplied by ``per_size[|S|]``."""
    sizes = coalition_sums([1] * n)
    return list(map(mul, dividends.nums, map(per_size.__getitem__, sizes)))


def shapley_exact(g: Game) -> RationalVector:
    """Exact Shapley value: each coalition's dividend split equally among members."""
    dividends = harsanyi_dividends(g)
    # in units of 1 / (lcm(1..n) * den), every share d/|S| is a whole number
    scale = math.lcm(*range(1, g.n + 1))
    w = _size_weighted(dividends, g.n, [0] + [scale // k for k in range(1, g.n + 1)])
    den = scale * dividends.den
    return tuple(Fraction(_sum_with(w, 1 << i), den) for i in range(g.n))


def shapley_matrix_exact(g: Game) -> tuple[RationalVector, ...]:
    """Exact synergy matrix: entry (i, j) sums dividends of coalitions
    containing both players, each divided by the squared coalition size.

    The matrix is symmetric and row ``i`` sums to the Shapley value of ``i``.
    """
    n = g.n
    dividends = harsanyi_dividends(g)
    scale = math.lcm(*range(1, n + 1)) ** 2
    w = _size_weighted(dividends, n, [0] + [scale // (k * k) for k in range(1, n + 1)])
    den = scale * dividends.den
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        _, with_i = _split(w, 1 << i)
        mat[i][i] = sum(with_i)
        for j in range(i + 1, n):
            # player j > i sits at bit j - 1 once bit i is removed
            mat[i][j] = mat[j][i] = _sum_with(with_i, 1 << (j - 1))
    return tuple(tuple(Fraction(x, den) for x in row) for row in mat)


def is_convex(g: Game) -> bool:
    """True iff marginal contributions weakly grow with the coalition.

    A game whose Harsanyi dividends are all nonnegative is convex: the
    second difference ``v(S+i+j) - v(S+i) - v(S+j) + v(S)`` is the sum of
    the dividends of the coalitions in ``S+i+j`` holding both ``i`` and
    ``j``.  So one Moebius pass accepts such a game, and only a game with a
    negative dividend goes on to :func:`_locally_convex`.
    """
    return is_positive(g) or _locally_convex(g)


def _locally_convex(g: Game) -> bool:
    """The local two-player criterion: for all ``i < j`` and every ``S``
    avoiding both, ``v(S+i+j) + v(S) >= v(S+i) + v(S+j)``, i.e. the
    marginal gain of ``i`` never drops when ``j`` joins."""
    for i in range(g.n):
        without_i, with_i = _split(g.values.nums, 1 << i)
        gain = list(map(sub, with_i, without_i))
        # players j > i sit at bits i .. n-2 of the table without i
        for j in range(i, g.n - 1):
            for lo, hi in _pairs(len(gain), 1 << j):
                if not all(map(ge, gain[hi], gain[lo])):
                    return False
    return True


def is_positive(g: Game) -> bool:
    """True iff every Harsanyi dividend is nonnegative."""
    return min(harsanyi_dividends(g).nums) >= 0


def is_size_bounded(g: Game) -> bool:
    """True iff every nonempty coalition is worth strictly less than its size."""
    den = g.values.den
    return all(x < mask.bit_count() * den for mask, x in enumerate(g.values.nums) if mask)


def in_core(g: Game, x: Sequence) -> bool:
    """True iff ``x`` is efficient and no coalition is paid less than its worth."""
    if len(x) != g.n:
        raise LengthMismatch(f"payoff vector has {len(x)} entries, game has {g.n} players")
    xt = RationalTable.of(x)
    sums = coalition_sums(xt.nums)
    t = g.values
    # compare sums / xt.den with nums / den by cross-multiplying
    if sums[-1] * t.den != t.nums[-1] * xt.den:
        return False
    return all(map(ge, map(mul, sums, repeat(t.den)), map(mul, t.nums, repeat(xt.den))))


class ReducedGame(NamedTuple):
    """A reduced game plus the original label of each surviving player."""

    game: Game
    players: tuple[int, ...]


def reduced_game(g: Game, i: int, c: Fraction) -> ReducedGame:
    """Pay player ``i`` the amount ``c`` and remove it from the game.

    The grand coalition of the result is worth ``v(N) - c``; every other
    coalition may either keep its old value or absorb ``i`` at price ``c``,
    whichever is larger.  Surviving players are densely reindexed;
    ``players[new]`` gives the original index.
    """
    _check_coalition(coalition([i]), g.n, "player")
    c = _as_fraction(c)
    if c < 0:
        raise NegativePayoff(f"reduction payoff must be >= 0, got {_shown(c, str)}")
    m = g.n - 1
    kept = tuple(p for p in range(g.n) if p != i)
    if m == 0:
        # removing the only player: the empty game must still be worth 0
        if g.grand_value != c:
            raise NonzeroEmptySet(
                f"reducing the last player by {_shown(c, str)} leaves value "
                f"{_shown(g.grand_value - c, str)}"
            )
        return ReducedGame(_EMPTY_GAME, kept)
    t = g.values
    den = math.lcm(t.den, c.denominator)
    price = c.numerator * (den // c.denominator)
    without_i, with_i = _split(t.nums, 1 << i)
    if den != t.den:
        k = den // t.den
        without_i = [x * k for x in without_i]
        with_i = [x * k for x in with_i]
    table = list(map(max, map(sub, with_i, repeat(price)), without_i))
    table[0] = 0
    table[-1] = with_i[-1] - price
    return ReducedGame(Game(m, RationalTable(table, den)), kept)


# the zero-player game (worth nothing); reachable only through reductions
_EMPTY_GAME = Game(0, (Fraction(0),))


def floor_values(g: Game) -> Game:
    """Round every coalition value down to an integer."""
    den = g.values.den
    return Game(g.n, RationalTable(x // den for x in g.values.nums))
