"""Election adapters: games from approval ballots and regional vote totals.

Approval ballots induce a fractional indivisible game over parties where a
coalition is worth the seat share of the voters it fully covers; regional
vote tables induce an integer game over coalition partners where a
coalition is worth the seats its merged list would win under D'Hondt
against fixed outsider lists.  Both games feed the exact indivisible
solver unchanged.

In a region, the seats a merged list with total V wins against fixed
outsiders are a step function of V: the "signposts" of divisor methods
(Balinski and Young, *Fair Representation*, 1982; Pukelsheim,
*Proportional Representation*, 2017).  The merged list is index 0 and
D'Hondt ranks by (quotient, raw votes, lower index), so the list wins at
least s seats exactly when V/s outranks the outsiders' (seats - s + 1)-th
best quotient a/b: V*b > a*s, or V*b == a*s and V >= a.  D'Hondt is house
monotone, so the thresholds are read off one D'Hondt run on the outsiders,
continued seat by seat.  A region costs two D'Hondt runs, one on all
members' votes, which bounds the seats any coalition can win there, and
one on the outsiders; then one seat step per threshold and one bisect per
coalition, for up to 2**m thresholds over m members.  A region whose
merged members could win more seats than that is read per coalition from
D'Hondt instead.  Every seat past a lower quota, in a run or in its
continuation, is handed out by the one seat step ``_next_seat``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Sequence

from .errors import AllZeroVotes, EmptySupportCoalition, InvalidRange, NoBallots
from .games import (
    MAX_TABLE_PLAYERS,
    Game,
    IntVector,
    RationalTable,
    _check_coalition,
    _check_player_count,
    _whole,
    coalition,
    coalition_sums,
    game_from_weights,
)
from .isv import indivisible_shapley


@dataclass(frozen=True)
class ApprovalProfile:
    """Party names plus multiplicity-weighted approval ballots.

    Each ballot is a (approval-set mask, multiplicity) pair; approval sets
    are nonempty subsets of the listed parties.
    """

    parties: tuple[str, ...]
    ballots: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ballots = []
        for mask, mult in self.ballots:
            if mask == 0:
                raise EmptySupportCoalition("ballots approving no party are rejected")
            _check_coalition(mask, len(self.parties), "ballot")
            ballots.append((mask, _whole(mult, "ballot multiplicity", 1)))
        object.__setattr__(self, "ballots", tuple(ballots))


def _check_votes(votes: Sequence[int]) -> tuple[int, ...]:
    return tuple(_whole(v, "vote total", 0) for v in votes)


@dataclass(frozen=True)
class Region:
    """A region: seats to fill plus the vote totals of the listed parties."""

    seats: int
    votes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seats", _whole(self.seats, "seat count", 1))
        object.__setattr__(self, "votes", _check_votes(self.votes))


@dataclass(frozen=True)
class RegionalVotes:
    regions: tuple[Region, ...]


def game_from_approvals(
    profile: ApprovalProfile, seats: int, *, max_parties: int = MAX_TABLE_PLAYERS
) -> Game:
    """The approval game: a party coalition is worth the seat share of the
    voters whose whole approval set it covers.  Exact rationals; the grand
    coalition is worth the full (integer) seat count."""
    if not profile.ballots:
        raise NoBallots("cannot build a game from zero ballots")
    seats = _whole(seats, "seat count", 1)
    total = sum(mult for _, mult in profile.ballots)
    # a coalition covers the voters of every ballot that is a subset of it
    weights = ((amask, seats * mult) for amask, mult in profile.ballots)
    return game_from_weights(len(profile.parties), weights, total, max_players=max_parties)


def apportion_isv(profile: ApprovalProfile, seats: int) -> IntVector:
    """Seat counts per party: the indivisible Shapley value of the approval game."""
    return indivisible_shapley(game_from_approvals(profile, seats)).payoffs


def dhondt(votes: Sequence[int], seats: int) -> IntVector:
    """Highest-averages apportionment with divisors 1, 2, 3, ...

    Quotient ties go to the larger raw vote total, then to the lower party
    index, so results are reproducible.
    """
    region = Region(seats, tuple(votes))
    if not any(region.votes):
        raise AllZeroVotes("at least one party needs a positive vote total")
    return _dhondt(region.votes, region.seats)


def _dhondt(votes: Sequence[int], seats: int) -> IntVector:
    """``dhondt`` on votes, not all 0, and a seat count already checked by ``Region``.

    Each party starts at its lower quota, votes * seats // total, which
    D'Hondt always grants (Balinski and Young, *Fair Representation*): every
    quotient of at least total / seats is among the winning ones, and there
    are at most seats of them, so ties cannot push one out.  The fewer than
    len(votes) seats left are handed out one at a time by ``_next_seat``, so
    the cost does not grow with the seat count.
    """
    total = sum(votes)
    alloc = [v * seats // total for v in votes]
    for _ in range(seats - sum(alloc)):
        _next_seat(votes, alloc)
    return tuple(alloc)


def _next_seat(votes: Sequence[int], alloc: list[int]) -> int:
    """Give the next seat to the best next quotient, votes[i] / (alloc[i] + 1),
    with ties to the larger raw vote total, then the lower index; returns the
    party that won it."""
    best = 0
    for i in range(1, len(votes)):
        # votes[i] / (alloc[i] + 1) against the best quotient so far
        lhs = votes[i] * (alloc[best] + 1)
        rhs = votes[best] * (alloc[i] + 1)
        if lhs > rhs or (lhs == rhs and votes[i] > votes[best]):
            best = i
    alloc[best] += 1
    return best


def coalition_game_from_regions(
    rv: RegionalVotes,
    member_parties: Sequence[int],
    outsiders: Sequence[Sequence[int]],
    *,
    max_players: int = MAX_TABLE_PLAYERS,
) -> Game:
    """The coalition-formation game over the given member parties.

    A subcoalition is worth the total seats, over all regions, that its
    members would win by running as one merged list (votes summed) against
    the fixed outsider lists of that region.

    One D'Hondt run per region, on the merged total of all members, gives
    the most seats any coalition can win there.  When that count is at most
    2**m, the region's seats are read by a bisect of each coalition's total
    in the thresholds of :func:`_seat_thresholds`; otherwise each coalition
    gets its own D'Hondt run.  Neither case costs more with more seats.
    """
    parties = tuple(member_parties)
    m = len(parties)
    _check_player_count(m, max_players)
    if len(outsiders) != len(rv.regions):
        raise InvalidRange(
            f"{len(outsiders)} outsider lists for {len(rv.regions)} regions"
        )
    party_mask = coalition(parties)
    if party_mask.bit_count() != m:
        repeated = next(p for k, p in enumerate(parties) if p in parties[:k])
        raise InvalidRange(f"member party {repeated} is listed more than once")
    checked = []
    for k, (region, outs) in enumerate(zip(rv.regions, outsiders)):
        _check_coalition(party_mask, len(region.votes), "member parties")
        checked.append(_check_votes(outs))
        if not any(region.votes[p] for p in parties) and not any(checked[-1]):
            raise AllZeroVotes(f"region {k}: no member party and no outsider has a vote")
    table = [0] * (1 << m)
    for region, outs in zip(rv.regions, checked):
        merged = coalition_sums([region.votes[p] for p in parties])
        # seats only grow with the merged total, so no coalition wins more than all members
        most = _dhondt([merged[-1], *outs], region.seats)[0]
        if most <= 1 << m:
            thresholds = _seat_thresholds(outs, region.seats, most)
            seats = map(partial(bisect_right, thresholds), merged)
        else:
            # a list with no votes wins nothing, whether or not an outsider has votes
            seats = (_dhondt([v, *outs], region.seats)[0] if v else 0 for v in merged)
        table = list(map(add, table, seats))
    return Game(m, RationalTable(table))


def _seat_thresholds(outs: Sequence[int], seats: int, most: int) -> list[int]:
    """The least merged total that wins at least s seats, for s = 1 .. ``most``.

    V/s must outrank the outsiders' (seats - s + 1)-th best quotient a/b,
    which is the seat the outsiders win when their house grows from
    seats - s to seats - s + 1.  D'Hondt is house monotone, so one run on
    the outsiders for seats - ``most`` seats, continued seat by seat up to
    ``seats``, reads every a/b off the seat just won, from s = ``most`` down
    to s = 1.  If every outsider has 0 votes, any V > 0 wins every seat.
    """
    if not any(outs):
        return [1] * most
    thresholds = []
    alloc = list(_dhondt(outs, seats - most))
    for s in range(most, 0, -1):
        won = _next_seat(outs, alloc)
        a, b = outs[won], alloc[won]
        # V*b > a*s from a*s // b + 1 on; V = a*s / b ties, and wins iff V >= a, i.e. s >= b
        q, r = divmod(a * s, b)
        thresholds.append(q if r == 0 and s >= b else q + 1)
    return thresholds[::-1]
