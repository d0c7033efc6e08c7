"""Election adapters: games from approval ballots and regional vote totals.

Approval ballots induce a fractional indivisible game over parties where a
coalition is worth the seat share of the voters it fully covers; regional
vote tables induce an integer game over coalition partners where a
coalition is worth the seats its merged list would win under D'Hondt
against fixed outsider lists.  Both games feed the exact indivisible
solver unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    len(votes) seats left are handed out one at a time, so the cost does not
    grow with the seat count.
    """
    total = sum(votes)
    alloc = [v * seats // total for v in votes]
    for _ in range(seats - sum(alloc)):
        best = 0
        for i in range(1, len(votes)):
            # votes[i] / (alloc[i] + 1) against the best quotient so far
            lhs = votes[i] * (alloc[best] + 1)
            rhs = votes[best] * (alloc[i] + 1)
            if lhs > rhs or (lhs == rhs and votes[i] > votes[best]):
                best = i
        alloc[best] += 1
    return tuple(alloc)


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
        for mask in range(1, 1 << m):
            lists = [merged[mask], *outs]
            if any(lists):
                table[mask] += _dhondt(lists, region.seats)[0]
    return Game(m, RationalTable(table))
