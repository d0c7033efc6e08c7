import random
from fractions import Fraction

import pytest

from indivisible import (
    ApprovalProfile,
    Region,
    RegionalVotes,
    apportion_isv,
    coalition,
    coalition_game_from_regions,
    dhondt,
    game_from_approvals,
    indivisible_shapley,
    shapley_exact,
)
from indivisible.errors import (
    AllZeroVotes,
    EmptySupportCoalition,
    InvalidRange,
    NoBallots,
)

from indivisible import elections
from oracles import coalition_game_by_dhondt, two_goods_game

F = Fraction


def profile(ballots, parties=None):
    if parties is None:
        m = max(mask.bit_length() for mask, _ in ballots)
        parties = tuple(chr(ord("A") + i) for i in range(m))
    return ApprovalProfile(tuple(parties), tuple(ballots))


def dhondt_reference(votes, seats):
    """All quotients up front, take the best `seats` with the tie rule."""
    quotients = [
        (F(v, d), v, -i)
        for i, v in enumerate(votes)
        for d in range(1, seats + 1)
    ]
    quotients.sort(reverse=True)
    alloc = [0] * len(votes)
    for _, v, negi in quotients[:seats]:
        alloc[-negi] += 1
    return tuple(alloc)


class TestApprovalGame:
    def test_two_party_shares(self):
        p = profile([(0b01, 3), (0b11, 1)])
        g = game_from_approvals(p, 4)
        assert g.values[0b01] == 3
        assert g.values[0b10] == 0
        assert g.values[0b11] == 4

    def test_unanimous_pair(self):
        p = profile([(0b11, 10)])
        g = game_from_approvals(p, 3)
        assert g.values[0b01] == 0 and g.values[0b10] == 0 and g.values[0b11] == 3

    def test_single_ballot_additive(self):
        g = game_from_approvals(profile([(0b1, 1)], parties=("A",)), 7)
        assert g.values == (F(0), F(7))

    def test_monotone_and_grand_seats(self):
        rng = random.Random(501)
        for _ in range(15):
            m = rng.randint(1, 5)
            ballots = [
                (rng.randint(1, (1 << m) - 1), rng.randint(1, 5))
                for _ in range(rng.randint(1, 8))
            ]
            seats = rng.randint(1, 10)
            g = game_from_approvals(profile(ballots, parties=tuple("ABCDE"[:m])), seats)
            assert g.grand_value == seats
            for mask in range(1 << m):
                for i in range(m):
                    if not mask >> i & 1:
                        assert g.values[mask] <= g.values[mask | (1 << i)]

    def test_empty_ballot_rejected(self):
        with pytest.raises(EmptySupportCoalition):
            profile([(0, 1)], parties=("A",))

    def test_no_ballots_rejected(self):
        with pytest.raises(NoBallots):
            game_from_approvals(ApprovalProfile(("A",), ()), 1)


class TestApportion:
    def test_majority_takes_remainder(self):
        assert apportion_isv(profile([(0b01, 3), (0b11, 1)]), 4) == (4, 0)

    def test_block_structure(self):
        # 66 voters approve the triple {A,B,C}, 33 the pair {D,E}: the
        # induced game is exactly the two-goods game, so the pair block
        # keeps one of the three seats
        p = profile([(coalition([0, 1, 2]), 66), (coalition([3, 4]), 33)])
        g = game_from_approvals(p, 3)
        assert g == two_goods_game()
        seats = apportion_isv(p, 3)
        assert seats == (1, 1, 0, 1, 0)
        assert seats[3] + seats[4] == 1
        assert seats[0] + seats[1] + seats[2] == 2

    def test_single_party(self):
        assert apportion_isv(profile([(0b1, 5)], parties=("A",)), 9) == (9,)

    def test_random_profiles_efficient_within_quotas(self):
        import math

        rng = random.Random(507)
        for _ in range(15):
            m = rng.randint(1, 5)
            ballots = [
                (rng.randint(1, (1 << m) - 1), rng.randint(1, 6))
                for _ in range(rng.randint(1, 8))
            ]
            seats = rng.randint(1, 9)
            p = profile(ballots, parties=tuple("ABCDE"[:m]))
            sv = shapley_exact(game_from_approvals(p, seats))
            alloc = apportion_isv(p, seats)
            assert sum(alloc) == seats
            for s, a in zip(sv, alloc):
                assert math.floor(s) <= a <= math.ceil(s)


class TestDhondt:
    def test_classic_split(self):
        assert dhondt((100, 80, 30), 8) == (4, 3, 1)

    def test_shutout(self):
        assert dhondt((1, 0), 5) == (5, 0)

    def test_even_tie(self):
        assert dhondt((50, 50), 2) == (1, 1)

    def test_matches_quotient_enumeration(self):
        rng = random.Random(503)
        for _ in range(40):
            m = rng.randint(1, 6)
            votes = [rng.randint(0, 60) for _ in range(m)]
            if not any(votes):
                votes[rng.randrange(m)] = 1
            seats = rng.randint(1, 12)
            assert dhondt(votes, seats) == dhondt_reference(votes, seats)

    def test_matches_quotient_enumeration_at_many_seats(self):
        # far more seats than parties, so most seats come from the lower quota
        cases = [
            ((40, 40, 40, 40), 200),  # equal totals, whole quotas
            ((40, 40, 40, 40), 203),  # equal totals, the rest decided by index
            ((0, 120, 0, 45, 0), 97),  # zero-vote parties
            ((5, 10, 20, 40, 15, 30), 240),  # multiples: quotients tie across parties
            ((3, 6, 9, 12, 18, 36, 2, 4), 399),
            ((90,), 50),  # a single party
            ((0, 0, 77, 0), 400),  # one party holds every vote
        ]
        rng = random.Random(521)
        for _ in range(30):
            m = rng.randint(2, 8)
            unit = rng.randint(1, 9)
            kind = rng.randrange(4)
            if kind == 0:
                votes = [unit * 7] * m
            elif kind == 1:
                votes = [rng.choice((0, 0, rng.randint(1, 500))) for _ in range(m)]
            elif kind == 2:
                votes = [unit * rng.randint(1, 6) for _ in range(m)]
            else:
                votes = [rng.randint(0, 1000) for _ in range(m)]
            if not any(votes):
                votes[rng.randrange(m)] = unit
            cases.append((tuple(votes), rng.randint(50, 400)))
        for votes, seats in cases:
            assert dhondt(votes, seats) == dhondt_reference(votes, seats)

    def test_house_monotone(self):
        rng = random.Random(509)
        for _ in range(20):
            votes = [rng.randint(1, 50) for _ in range(rng.randint(2, 5))]
            prev = dhondt(votes, 1)
            for seats in range(2, 10):
                cur = dhondt(votes, seats)
                assert all(c >= p for c, p in zip(cur, prev))
                prev = cur

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroVotes):
            dhondt((0, 0), 3)

    def test_seats_positive(self):
        with pytest.raises(InvalidRange):
            dhondt((10,), 0)


class TestCoalitionGame:
    def test_single_region_merged_list(self):
        rv = RegionalVotes((Region(3, (100, 80)),))
        g = coalition_game_from_regions(rv, (0, 1), [(30,)])
        assert g.values[0b11] == 3
        assert g.values[0b01] == dhondt((100, 30), 3)[0]
        assert g.values[0b10] == dhondt((80, 30), 3)[0]

    def test_single_member_standalone(self):
        rv = RegionalVotes((Region(5, (40, 25, 10)),))
        g = coalition_game_from_regions(rv, (1,), [(40, 10)])
        assert g.values[0b1] == dhondt((25, 40, 10), 5)[0]

    def test_monotone(self):
        rng = random.Random(521)
        for _ in range(10):
            m = rng.randint(1, 4)
            regions = []
            outsiders = []
            for _ in range(rng.randint(1, 3)):
                votes = tuple(rng.randint(0, 50) for _ in range(m))
                regions.append(Region(rng.randint(1, 6), votes))
                outsiders.append(tuple(rng.randint(0, 40) for _ in range(rng.randint(0, 2))))
            g = coalition_game_from_regions(RegionalVotes(tuple(regions)), range(m), outsiders)
            for mask in range(1 << m):
                for i in range(m):
                    if not mask >> i & 1:
                        assert g.values[mask] <= g.values[mask | (1 << i)]

    def test_region_without_member_votes_is_worth_nothing(self):
        rv = RegionalVotes((Region(2, (0, 0)), Region(3, (4, 1))))
        g = coalition_game_from_regions(rv, (0, 1), [(5, 3), (2,)])
        assert list(g.values) == [0, 2, 1, 2]

    def test_region_without_any_votes_rejected(self):
        rv = RegionalVotes((Region(2, (0, 0, 7)),))
        with pytest.raises(AllZeroVotes):
            coalition_game_from_regions(rv, (0, 1), [(0,)])

    def test_ties_at_the_decisive_seat(self):
        # member 1 has no votes, so both coalitions with member 0 hold its votes
        cases = [
            # equal quotients and equal raw totals: the merged list (index 0) wins
            (3, 2, (3,), 1),
            (3, 3, (3,), 2),
            # equal quotients, more raw votes: 6/2 ties 3/1 and the 6 wins
            (6, 2, (3, 1), 2),
            (6, 3, (3, 1), 2),
            # equal quotients, fewer raw votes: 3/1 ties 6/2 and the 6 wins
            (3, 2, (6,), 0),
            (3, 3, (6, 1), 1),
        ]
        for votes, seats, outs, won in cases:
            rv = RegionalVotes((Region(seats, (votes, 0)),))
            g = coalition_game_from_regions(rv, (0, 1), [outs])
            assert list(g.values) == [0, won, 0, won], (votes, seats, outs)

    def test_matches_dhondt_per_coalition_on_forced_ties(self):
        """Votes drawn from small multiples of one unit make equal raw totals
        and equal quotients common.  Regions may have zero-vote outsiders or
        none, or members whose votes sum to 0, and fall on both sides of the
        2**m bound on the seats the merged list can win."""
        rng = random.Random(523)
        steps = (0, 1, 2, 3, 4, 6, 12)
        kinds, sides = set(), set()
        for _ in range(300):
            m = rng.randint(1, 4)
            unit = rng.randint(1, 5)
            regions, outsiders = [], []
            for _ in range(rng.randint(1, 3)):
                seats = rng.randint(1, 12)
                votes = [unit * rng.choice(steps) for _ in range(m + 1)]
                outs = [unit * rng.choice(steps) for _ in range(rng.randint(1, 3))]
                kind = rng.randrange(5)
                if kind == 1:
                    outs = []
                elif kind == 2:
                    outs = [0] * len(outs)
                elif kind == 3:
                    votes[:m] = [0] * m
                if not any(votes[:m]) and not any(outs):
                    outs.append(unit)
                kinds.add(kind)
                most = dhondt([sum(votes[:m]), *outs], seats)[0]
                sides.add(most <= 1 << m)
                regions.append(Region(seats, tuple(votes)))
                outsiders.append(tuple(outs))
            rv = RegionalVotes(tuple(regions))
            want = coalition_game_by_dhondt(rv, range(m), outsiders)
            assert coalition_game_from_regions(rv, range(m), outsiders) == want
        assert kinds == set(range(5)) and sides == {True, False}

    def test_matches_dhondt_per_coalition_at_hundreds_of_seats(self):
        """Regions of hundreds of seats, where the merged members can win up
        to 2**m of them, so each region's thresholds come from hundreds of
        seat steps past the outsiders' first run.  Votes are small multiples
        of one unit, so equal quotients stay common at every seat."""
        rng = random.Random(529)
        steps = (1, 2, 3, 4, 6, 12)
        most_seen = []
        for _ in range(12):
            m = rng.randint(7, 9)
            unit = rng.randint(1, 7)
            regions, outsiders = [], []
            for _ in range(rng.randint(1, 2)):
                seats = rng.randint(200, 600)
                votes = tuple(unit * rng.choice((0, *steps)) for _ in range(m))
                outs = tuple(unit * rng.choice(steps) for _ in range(rng.randint(1, 3)))
                regions.append(Region(seats, votes))
                outsiders.append(outs)
                most = dhondt([sum(votes), *outs], seats)[0]
                if most <= 1 << m:
                    most_seen.append(most)
            rv = RegionalVotes(tuple(regions))
            want = coalition_game_by_dhondt(rv, range(m), outsiders)
            assert coalition_game_from_regions(rv, range(m), outsiders) == want
        assert len(most_seen) >= 6 and max(most_seen) >= 300

    def test_at_most_two_dhondt_runs_per_region(self, monkeypatch):
        calls = []

        def counted(votes, seats):
            calls.append(seats)
            return dhondt_run(votes, seats)

        dhondt_run = elections._dhondt
        monkeypatch.setattr(elections, "_dhondt", counted)
        regions = (Region(8, (30, 20, 10)), Region(12, (7, 9, 5)), Region(3, (1, 1, 0)))
        outsiders = [(25, 5), (12, 12), (0,)]
        rv = RegionalVotes(regions)
        g = coalition_game_from_regions(rv, range(3), outsiders)
        assert len(calls) <= 2 * len(regions)
        monkeypatch.setattr(elections, "_dhondt", dhondt_run)
        assert g == coalition_game_by_dhondt(rv, range(3), outsiders)
        # every region reads 2 to 2**3 thresholds, none a run per coalition
        mosts = [dhondt([sum(r.votes), *outs], r.seats)[0] for r, outs in zip(regions, outsiders)]
        assert mosts == [6, 6, 3]

    def test_pooling_gains_seats(self):
        # two regions where separate lists waste votes against a large rival
        rv = RegionalVotes((Region(3, (30, 25)), Region(3, (30, 25))))
        outsiders = [(100,), (100,)]
        g = coalition_game_from_regions(rv, (0, 1), outsiders)
        separate = g.values[0b01] + g.values[0b10]
        assert g.values[0b11] > separate
        payoffs = indivisible_shapley(g).payoffs
        assert sum(payoffs) == g.grand_value
        sv = shapley_exact(g)
        assert sum(sv) == g.grand_value
