"""Object allocation for positive games given as owner lists.

An owner list names, for each object, the coalition of players that
jointly own it.  The induced game counts the objects fully owned by a
coalition, its Shapley value has a closed form (each owner gets an equal
share of each owned object), and the integer payoffs can be realised as
an actual assignment of objects to owners via bipartite matching: one
player-node copy per guaranteed unit, matched by Hopcroft-Karp, then one
extra copy per player in remainder order, kept only if an augmenting path
exists.  The resulting count vector matches the exact indivisible Shapley
value of the induced game without ever building the full table.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DuplicateCoalition,
    EmptySupportCoalition,
    InvalidRange,
    NegativeDividend,
    NonIntegerResidue,
    PlayerOutOfRange,
)
from .games import (
    MAX_TABLE_PLAYERS,
    Game,
    IntVector,
    RationalVector,
    game_from_weights,
    members,
)
from .isv import remainder_order


@dataclass(frozen=True)
class OwnerList:
    """One owning coalition per object; duplicates allowed."""

    n: int
    owners: tuple[int, ...]

    def __post_init__(self):
        for mask in self.owners:
            if mask == 0:
                raise EmptySupportCoalition("every object needs at least one owner")
            if mask < 0 or mask >= 1 << self.n:
                raise PlayerOutOfRange(
                    f"owners {members(mask)} outside 0..{self.n - 1}"
                )


def owner_list(n: int, owner_sets: Iterable[Iterable[int]]) -> OwnerList:
    """Build an owner list from iterables of player indices."""
    masks = []
    for s in owner_sets:
        mask = 0
        for p in s:
            mask |= 1 << p
        masks.append(mask)
    return OwnerList(n, tuple(masks))


def game_from_owners(ol: OwnerList, *, max_players: int = MAX_TABLE_PLAYERS) -> Game:
    """The induced game: a coalition is worth the number of objects it owns."""
    return game_from_weights(ol.n, ((s, 1) for s in ol.owners), max_players=max_players)


def shapley_from_owners(ol: OwnerList) -> RationalVector:
    """Closed-form Shapley value: an equal share of each owned object."""
    sv = [Fraction(0)] * ol.n
    for mask in ol.owners:
        share = Fraction(1, mask.bit_count())
        for i in members(mask):
            sv[i] += share
    return tuple(sv)


_FREE = -1
_INF = -1


class MatchingGraph:
    """Bipartite matching state between player-node copies and objects.

    Left nodes are copies, each tagged with its player; right nodes are
    the objects, adjacent to every copy of every owner.  All scans run in
    ascending id order, so matchings are reproducible.
    """

    def __init__(self, object_owners: Sequence[int]):
        self._object_owners = tuple(object_owners)
        self.copy_player: list[int] = []
        self._copy_objects: list[tuple[int, ...]] = []
        # each player's objects in ascending order, shared by all its copies
        player_objects: dict[int, list[int]] = {}
        for j, owners in enumerate(self._object_owners):
            if owners < 0:
                raise PlayerOutOfRange(f"object {j} has a negative owner mask {owners}")
            for p in members(owners):
                player_objects.setdefault(p, []).append(j)
        self._player_objects = {p: tuple(objs) for p, objs in player_objects.items()}
        self.match_of_copy: list[int] = []
        self.match_of_object: list[int] = [_FREE] * len(object_owners)

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
        self._copy_objects.append(self._player_objects.get(player, ()))
        self.match_of_copy.append(_FREE)
        return node

    def matching_size(self) -> int:
        return sum(1 for m in self.match_of_copy if m != _FREE)

    def hopcroft_karp(self) -> int:
        """Extend the current matching to maximum cardinality; returns its size."""
        while self._hk_bfs():
            for node in range(self.copies):
                if self.match_of_copy[node] == _FREE:
                    self._hk_dfs(node)
        return self.matching_size()

    def _hk_bfs(self) -> bool:
        self._dist = [_INF] * self.copies
        queue = deque()
        for node in range(self.copies):
            if self.match_of_copy[node] == _FREE:
                self._dist[node] = 0
                queue.append(node)
        found = _INF
        while queue:
            node = queue.popleft()
            if found != _INF and self._dist[node] >= found:
                continue
            for obj in self._copy_objects[node]:
                other = self.match_of_object[obj]
                if other == _FREE:
                    if found == _INF:
                        found = self._dist[node] + 1
                elif self._dist[other] == _INF:
                    self._dist[other] = self._dist[node] + 1
                    queue.append(other)
        self._layer = found
        return found != _INF

    def _hk_dfs(self, node: int) -> bool:
        for obj in self._copy_objects[node]:
            other = self.match_of_object[obj]
            if other == _FREE:
                if self._dist[node] + 1 == self._layer:
                    self._pair(node, obj)
                    return True
            elif self._dist[other] == self._dist[node] + 1:
                if self._hk_dfs(other):
                    self._pair(node, obj)
                    return True
        self._dist[node] = _INF
        return False

    def _pair(self, node: int, obj: int) -> None:
        self.match_of_copy[node] = obj
        self.match_of_object[obj] = node

    def augment_from(self, node: int) -> bool:
        """Try one augmenting path from an unmatched copy.

        Extends the matching by one edge and returns True if an
        alternating path to a free object exists; otherwise the state is
        left untouched and False is returned.
        """
        if self.match_of_copy[node] != _FREE:
            raise InvalidRange(f"copy {node} is already matched")
        return self._kuhn(node, set())

    def _kuhn(self, node: int, seen: set[int]) -> bool:
        for obj in self._copy_objects[node]:
            if obj in seen:
                continue
            seen.add(obj)
            other = self.match_of_object[obj]
            if other == _FREE or self._kuhn(other, seen):
                self._pair(node, obj)
                return True
        return False

    def counts(self, n: int) -> list[int]:
        out = [0] * n
        for node, obj in enumerate(self.match_of_copy):
            if obj != _FREE:
                out[self.copy_player[node]] += 1
        return out

    def assignment(self) -> list[int]:
        """Owner of each object; raises if any object is unmatched."""
        out = []
        for obj, node in enumerate(self.match_of_object):
            if node == _FREE:
                raise AssertionError(f"object {obj} left unallocated")
            out.append(self.copy_player[node])
        return out


class AllocationResult(NamedTuple):
    assignment: IntVector
    counts: IntVector


def isv_allocation(ol: OwnerList) -> AllocationResult:
    """Allocate every object to an owner so the per-player counts equal the
    indivisible Shapley value of the induced game.

    Runs in polynomial time in the number of objects and players; the full
    game table is never materialized.
    """
    sv = shapley_from_owners(ol)
    graph = MatchingGraph(ol.owners)
    for i in range(ol.n):
        for _ in range(math.floor(sv[i])):
            graph.add_copy(i)
    matched = graph.hopcroft_karp()
    if matched != graph.copies:
        raise AssertionError("floor copies admit no perfect matching")
    for i in remainder_order(sv):
        if sv[i] > math.floor(sv[i]):
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
    base = [0] * n
    residual: list[int] = []
    seen = set()
    for mask, d in dividends:
        if mask == 0:
            raise EmptySupportCoalition("dividends are defined for nonempty coalitions")
        if mask < 0 or mask >= 1 << n:
            raise PlayerOutOfRange(f"coalition {members(mask)} outside 0..{n - 1}")
        if mask in seen:
            raise DuplicateCoalition(f"coalition {members(mask)} listed twice")
        seen.add(mask)
        d = d if isinstance(d, Fraction) else Fraction(d)
        if d < 0:
            raise NegativeDividend(f"dividend of {members(mask)} is {d}")
        if d == 0:
            continue
        size = mask.bit_count()
        whole = math.floor(d / size)
        residue = d - whole * size
        if residue.denominator != 1:
            raise NonIntegerResidue(
                f"coalition {members(mask)} leaves a fractional residue {residue}"
            )
        for i in members(mask):
            base[i] += whole
        residual.extend([mask] * int(residue))
    if residual:
        counts = isv_allocation(OwnerList(n, tuple(residual))).counts
        return tuple(b + c for b, c in zip(base, counts))
    return tuple(base)
