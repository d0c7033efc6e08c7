"""Object allocation for positive games given as owner lists.

An owner list names, for each object, the coalition of players that
jointly own it.  The induced game counts the objects fully owned by a
coalition, its Shapley value has a closed form (each owner gets an equal
share of each owned object), and the integer payoffs can be realised as
an actual assignment of objects to owners via bipartite matching: one
player-node copy per guaranteed unit, all matched, then one extra copy
per player left with a fraction, in remainder order, kept only if an
augmenting path exists.  One walk over the owners' bits lists each
player's objects; the shares are summed from those lists and the
matching reads them too.  Every augmenting path comes from one iterative
breadth-first search over players, which ends at the first player it
reaches that holds a free object.  A matched object is never freed again
(a path only passes objects on between copies), so each player's free
objects come from one forward pass over its list.  The guaranteed units
are matched player by player: a search from a player that still holds a
free object would take exactly that object, so a player's units take its
next free objects in that one pass, and only the units left over search.
Shares, floors and remainders are integers over one common scale.  The
resulting count vector matches the exact indivisible Shapley value of
the induced game without ever building the full table; which owner gets
each object is deterministic, but only the counts are the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    EmptySupportCoalition,
    InvalidRange,
    NegativeDividend,
    NonIntegerResidue,
)
from .games import (
    MAX_TABLE_PLAYERS,
    Game,
    IntVector,
    RationalVector,
    _check_coalition,
    _read_entries,
    _shown,
    _whole,
    coalition,
    game_from_weights,
    members,
)
from .isv import _remainder_order


@dataclass(frozen=True)
class OwnerList:
    """One owning coalition per object; duplicates allowed."""

    n: int
    owners: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _whole(self.n, "player count", 0))
        for mask in self.owners:
            if mask == 0:
                raise EmptySupportCoalition("every object needs at least one owner")
            _check_coalition(mask, self.n, "owners")


def owner_list(n: int, owner_sets: Iterable[Iterable[int]]) -> OwnerList:
    """Build an owner list from iterables of player indices."""
    return OwnerList(n, tuple(coalition(s) for s in owner_sets))


def game_from_owners(ol: OwnerList, *, max_players: int = MAX_TABLE_PLAYERS) -> Game:
    """The induced game: a coalition is worth the number of objects it owns."""
    return game_from_weights(ol.n, ((s, 1) for s in ol.owners), max_players=max_players)


def _player_objects(object_owners: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Each owning player's objects in ascending order, from one walk over
    the owners' bits; raises unless every mask is a positive int."""
    objects: dict[int, list[int]] = {}
    for j, owners in enumerate(object_owners):
        if not isinstance(owners, int) or owners <= 0:
            members(owners)  # raises PlayerOutOfRange unless there is no owner
            raise EmptySupportCoalition(f"object {j} has no owner")
        while owners:
            p = owners.bit_length() - 1
            objects.setdefault(p, []).append(j)
            owners ^= 1 << p
    return {p: tuple(objs) for p, objs in objects.items()}


def _owner_shares(
    n: int, object_owners: Sequence[int], player_objects: dict[int, tuple[int, ...]]
) -> tuple[list[int], int]:
    """Each player's Shapley value as an integer numerator over one scale,
    summed over the player's objects."""
    sizes = [mask.bit_count() for mask in object_owners]
    # in units of 1 / scale, every share 1/|S| is a whole number
    scale = math.lcm(*set(sizes))
    share = [scale // size for size in sizes]
    nums = [0] * n
    for p, objs in player_objects.items():
        nums[p] = sum(map(share.__getitem__, objs))
    return nums, scale


def shapley_from_owners(ol: OwnerList) -> RationalVector:
    """Closed-form Shapley value: an equal share of each owned object."""
    nums, scale = _owner_shares(ol.n, ol.owners, _player_objects(ol.owners))
    return tuple(Fraction(x, scale) for x in nums)


_FREE = -1


class MatchingGraph:
    """Bipartite matching state between player-node copies and objects.

    Left nodes are copies, each tagged with its player; right nodes are
    the objects, adjacent to every copy of every owner.  Augmenting paths
    are found breadth-first over players, each scanning its objects in
    ascending order, so a path is one with the fewest players and
    matchings are reproducible.  Each player is checked for a free object
    when the search reaches it, and the search ends at the first player
    that has one.  A matched object never becomes free again, so each
    player's free objects are read off one forward pass over its object
    list; an object the pass yields is taken at once, and the next one it
    yields is the one a full scan would reach first.  Unmatched copies
    hold nothing and no search passes through them, so ``isv_allocation``
    matches a player's floor copies as one batch off that pass, and only
    the copies it leaves unmatched search.
    """

    def __init__(self, object_owners: Sequence[int]):
        self._object_owners = tuple(object_owners)
        self.copy_player: list[int] = []
        # each player's objects in ascending order, shared by all its copies
        self._player_objects = _player_objects(self._object_owners)
        self.match_of_copy: list[int] = []
        self.match_of_object: list[int] = [_FREE] * len(self._object_owners)
        self._dead: set[int] = set()  # players no augmenting path can enter
        match = self.match_of_object
        # per player, the pass over its objects that yields the free ones
        self._unheld: dict[int, Iterator[int]] = {
            p: filter(lambda obj: match[obj] == _FREE, objs)
            for p, objs in self._player_objects.items()
        }

    @property
    def objects(self) -> int:
        return len(self._object_owners)

    @property
    def copies(self) -> int:
        return len(self.copy_player)

    def add_copy(self, player: int) -> int:
        """Add an unmatched copy of a player; returns the new node id."""
        node = len(self.copy_player)
        self.copy_player.append(player)
        self.match_of_copy.append(_FREE)
        return node

    def matching_size(self) -> int:
        return sum(1 for m in self.match_of_copy if m != _FREE)

    def hopcroft_karp(self) -> int:
        """Extend the current matching to maximum cardinality; returns its size.

        Runs the breadth-first player search once from each unmatched copy,
        in id order, each search ending at the first player it reaches that
        holds a free object; a copy that finds no augmenting path then would
        find none later either.
        """
        for node in range(self.copies):
            if self.match_of_copy[node] == _FREE:
                self._augment(node)
        return self.matching_size()

    def _pair(self, node: int, obj: int) -> None:
        self.match_of_copy[node] = obj
        self.match_of_object[obj] = node

    def augment_from(self, node: int) -> bool:
        """Try one augmenting path from an unmatched copy.

        Extends the matching by one edge and returns True if an
        alternating path to a free object exists; otherwise the state is
        left untouched and False is returned.
        """
        if not isinstance(node, int) or not 0 <= node < self.copies:
            raise InvalidRange(f"copy id {_shown(node)} outside 0..{self.copies - 1}")
        if self.match_of_copy[node] != _FREE:
            raise InvalidRange(f"copy {node} is already matched")
        return self._augment(node)

    def _free_object(self, player: int) -> int:
        # the player's next free object, which the caller takes, or _FREE
        return next(self._unheld.get(player, iter(())), _FREE)

    def _add_matched(self, player: int, units: int) -> bool:
        """Add ``units`` copies of a player and match each in id order;
        False once one of them finds no augmenting path.

        A search from a player that still has a free object pairs the copy
        with the next one, and unmatched copies are invisible to every
        search, so the copies first take the player's free objects in one
        pass and only the rest search."""
        first = self.copies
        taken = list(islice(self._unheld.get(player, iter(())), units))
        self.copy_player += [player] * units
        self.match_of_copy += taken
        self.match_of_copy += [_FREE] * (units - len(taken))
        match = self.match_of_object
        for node, obj in enumerate(taken, first):
            match[obj] = node
        return all(map(self._augment, range(first + len(taken), first + units)))

    def _augment(self, root: int) -> bool:
        # Breadth-first over players, not copies: the copies of one player
        # share its objects, so any of them can pass an object on.  A
        # player is entered through an object one of its copies holds;
        # via[player] = (that object, the player that takes it).  Players
        # leave the queue in the order they join it and the matching does
        # not change during a search, so the first player reached with a
        # free object is the one a check at dequeue time would find first.
        start = self.copy_player[root]
        if start in self._dead:
            return False
        match = self.match_of_object
        copy_player = self.copy_player
        dead = self._dead
        via: dict[int, tuple[int, int] | None] = {start: None}
        player, obj = start, self._free_object(start)
        queue = [start]
        head = 0
        while obj == _FREE:
            if head == len(queue):
                # Every object these players own is held by one of their
                # copies, and no augmenting path can change that, so later
                # searches skip them.
                dead.update(via)
                return False
            taker = queue[head]
            head += 1
            for held in self._player_objects.get(taker, ()):
                player = copy_player[match[held]]
                if player not in via and player not in dead:
                    via[player] = (held, taker)
                    obj = self._free_object(player)
                    if obj != _FREE:
                        break
                    queue.append(player)
        # walk back, moving each copy on the path to the object ahead of it
        while player != start:
            held, player = via[player]
            self._pair(match[held], obj)
            obj = held
        self._pair(root, obj)
        return True

    def counts(self, n: int) -> list[int]:
        """Matched copies per player, for players ``0..n-1``; ``n`` must be a
        whole number above every matched player."""
        out = [0] * _whole(n, "player count", 0)
        try:
            for player, obj in zip(self.copy_player, self.match_of_copy):
                if obj != _FREE:
                    out[player] += 1
        except IndexError:
            raise InvalidRange(f"player count {_shown(n)} leaves a matched player out") from None
        return out

    def assignment(self) -> list[int]:
        """Owner of each object; raises ``InvalidRange`` if any object is unmatched."""
        if _FREE in self.match_of_object:
            raise InvalidRange(f"object {self.match_of_object.index(_FREE)} left unallocated")
        return list(map(self.copy_player.__getitem__, self.match_of_object))


class AllocationResult(NamedTuple):
    assignment: IntVector
    counts: IntVector


def isv_allocation(ol: OwnerList) -> AllocationResult:
    """Allocate every object to an owner so the per-player counts equal the
    indivisible Shapley value of the induced game.

    Each player's floor units are matched as a batch: they take the
    player's own free objects in ascending order, and only the units left
    once it holds all of them search for an augmenting path; the result is
    the one a search per unit, in player order, would give.  The remainder
    copies then search one by one, in remainder order.  Runs in polynomial
    time in the number of objects and players; the full game table is
    never materialized.
    """
    graph = MatchingGraph(ol.owners)
    nums, scale = _owner_shares(ol.n, ol.owners, graph._player_objects)
    for i, num in enumerate(nums):
        if not graph._add_matched(i, num // scale):
            raise AssertionError("floor copies admit no perfect matching")
    for i in _remainder_order(nums, scale):
        graph.augment_from(graph.add_copy(i))
    assignment = graph.assignment()
    return AllocationResult(tuple(assignment), tuple(graph.counts(ol.n)))


def isv_from_dividends(n: int, dividends: Iterable[tuple[int, Fraction]]) -> IntVector:
    """Indivisible Shapley value of a positive game given as nonzero dividends.

    Each coalition first pays every member the whole units in its dividend;
    the leftover per-coalition residues, which must be whole numbers, form
    an owner list allocated via matching.  Polynomial in the number of
    listed dividends and players.
    """
    n = _whole(n, "player count", 0)
    listed = _read_entries(n, dividends)
    if 0 in listed:
        raise EmptySupportCoalition("dividends are defined for nonempty coalitions")
    base = [0] * n
    residual: list[int] = []
    for mask, d in listed.items():
        if d < 0:
            raise NegativeDividend(f"dividend of {members(mask)} is {_shown(d, str)}")
        whole, residue = divmod(d, mask.bit_count())
        if residue.denominator != 1:
            raise NonIntegerResidue(
                f"coalition {members(mask)} leaves a fractional residue {_shown(residue, str)}"
            )
        for i in members(mask):
            base[i] += whole
        residual.extend([mask] * int(residue))
    if residual:
        counts = isv_allocation(OwnerList(n, tuple(residual))).counts
        return tuple(b + c for b, c in zip(base, counts))
    return tuple(base)
