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

from .errors import (
    AllZeroVotes,
    EmptySupportCoalition,
    InvalidRange,
    NoBallots,
    PlayerOutOfRange,
    TooManyParties,
    TooManyPlayers,
)
from .games import (
    MAX_TABLE_PLAYERS,
    Game,
    IntVector,
    RationalTable,
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
        m = len(self.parties)
        for mask, mult in self.ballots:
            if mask == 0:
                raise EmptySupportCoalition("ballots approving no party are rejected")
            if mask < 0 or mask >= 1 << m:
                raise PlayerOutOfRange(f"ballot approves parties outside 0..{m - 1}")
            if mult < 1:
                raise InvalidRange(f"ballot multiplicity must be >= 1, got {mult}")


@dataclass(frozen=True)
class Region:
    """A region: seats to fill plus the vote totals of the listed parties."""

    seats: int
    votes: tuple[int, ...]

    def __post_init__(self):
        if self.seats < 1:
            raise InvalidRange(f"region must have >= 1 seat, got {self.seats}")
        if any(v < 0 for v in self.votes):
            raise InvalidRange("vote totals must be nonnegative")
        if not any(self.votes):
            raise AllZeroVotes("every region needs at least one positive vote")


@dataclass(frozen=True)
class RegionalVotes:
    regions: tuple[Region, ...]


def game_from_approvals(
    profile: ApprovalProfile, seats: int, *, max_parties: int = MAX_TABLE_PLAYERS
) -> Game:
    """The approval game: a party coalition is worth the seat share of the
    voters whose whole approval set it covers.  Exact rationals; the grand
    coalition is worth the full (integer) seat count."""
    m = len(profile.parties)
    if m > max_parties:
        raise TooManyParties(f"at most {max_parties} parties supported, got {m}")
    if not profile.ballots:
        raise NoBallots("cannot build a game from zero ballots")
    if seats < 1:
        raise InvalidRange(f"seat count must be >= 1, got {seats}")
    total = sum(mult for _, mult in profile.ballots)
    # a coalition covers the voters of every ballot that is a subset of it
    weights = ((amask, seats * mult) for amask, mult in profile.ballots)
    return game_from_weights(m, weights, total, max_players=max_parties)


def apportion_isv(profile: ApprovalProfile, seats: int) -> IntVector:
    """Seat counts per party: the indivisible Shapley value of the approval game."""
    return indivisible_shapley(game_from_approvals(profile, seats)).payoffs


def dhondt(votes: Sequence[int], seats: int) -> IntVector:
    """Highest-averages apportionment with divisors 1, 2, 3, ...

    Quotient ties go to the larger raw vote total, then to the lower party
    index, so results are reproducible.
    """
    if seats < 1:
        raise InvalidRange(f"seat count must be >= 1, got {seats}")
    if any(v < 0 for v in votes):
        raise InvalidRange("vote totals must be nonnegative")
    if not any(votes):
        raise AllZeroVotes("at least one party needs a positive vote total")
    alloc = [0] * len(votes)
    for _ in range(seats):
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
    if m < 1:
        raise PlayerOutOfRange("need at least one member party")
    if m > max_players:
        raise TooManyPlayers(f"at most {max_players} member parties supported, got {m}")
    if len(outsiders) != len(rv.regions):
        raise InvalidRange(
            f"{len(outsiders)} outsider lists for {len(rv.regions)} regions"
        )
    for region in rv.regions:
        for p in parties:
            if p < 0 or p >= len(region.votes):
                raise PlayerOutOfRange(f"party {p} missing from a region's vote table")
    table = [0] * (1 << m)
    for region, outs in zip(rv.regions, outsiders):
        merged = coalition_sums([region.votes[p] for p in parties])
        for mask in range(1, 1 << m):
            lists = [merged[mask], *outs]
            if any(lists):
                table[mask] += dhondt(lists, region.seats)[0]
    return Game(m, RationalTable(table))
