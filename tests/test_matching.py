import math
import random
from fractions import Fraction

import pytest

from indivisible import (
    MatchingGraph,
    OwnerList,
    coalition,
    game_from_owners,
    in_core,
    indivisible_shapley,
    is_positive,
    isv_allocation,
    isv_from_dividends,
    make_game,
    owner_list,
    shapley_exact,
    shapley_from_owners,
)
from indivisible.errors import (
    EmptySupportCoalition,
    NegativeDividend,
    NonIntegerResidue,
    PlayerOutOfRange,
)

from oracles import FIVE_PLAYER_OWNERS, random_owner_list, two_goods_game

F = Fraction


class TestOwnerList:
    def test_validation(self):
        with pytest.raises(EmptySupportCoalition):
            OwnerList(3, (0,))
        with pytest.raises(PlayerOutOfRange):
            OwnerList(2, (0b100,))

    def test_builder(self):
        ol = owner_list(3, [[0, 1], [2]])
        assert ol.owners == (0b011, 0b100)


class TestGameFromOwners:
    def test_fixture_values(self):
        g = game_from_owners(FIVE_PLAYER_OWNERS)
        assert g.grand_value == 4
        assert g.values[coalition([2, 3])] == 1
        assert g.values[coalition([2, 3, 4])] == 2
        assert is_positive(g)

    def test_single_owner_additive(self):
        g = game_from_owners(owner_list(2, [[0]]))
        assert g.values == (F(0), F(1), F(0), F(1))

    def test_empty_list_null_game(self):
        g = game_from_owners(OwnerList(3, ()))
        assert all(v == 0 for v in g.values)


class TestShapleyFromOwners:
    def test_fixture(self):
        sv = shapley_from_owners(FIVE_PLAYER_OWNERS)
        assert sv == (F(2, 3), F(2, 3), F(7, 6), F(5, 6), F(2, 3))
        assert sv == shapley_exact(game_from_owners(FIVE_PLAYER_OWNERS))

    def test_shared_object(self):
        assert shapley_from_owners(owner_list(2, [[0, 1]])) == (F(1, 2), F(1, 2))

    def test_sole_ownership(self):
        assert shapley_from_owners(owner_list(3, [[0], [0]])) == (F(2), F(0), F(0))

    def test_matches_exact_on_random_lists(self):
        rng = random.Random(401)
        for _ in range(20):
            ol = random_owner_list(rng, rng.randint(1, 6))
            assert shapley_from_owners(ol) == shapley_exact(game_from_owners(ol))


class TestMatchingGraph:
    def test_complete_two_by_two(self):
        graph = MatchingGraph([0b11, 0b11])
        graph.add_copy(0)
        graph.add_copy(1)
        assert graph.hopcroft_karp() == 2

    def test_star_saturates_single_object(self):
        graph = MatchingGraph([0b111])
        for p in range(3):
            graph.add_copy(p)
        assert graph.hopcroft_karp() == 1

    def test_floor_copies_match_perfectly(self):
        # player 2 is the only one with a whole guaranteed unit
        graph = MatchingGraph(FIVE_PLAYER_OWNERS.owners)
        graph.add_copy(2)
        assert graph.hopcroft_karp() == 1

    def test_augment_to_free_object(self):
        graph = MatchingGraph([0b01, 0b10])
        a = graph.add_copy(0)
        assert graph.augment_from(a)
        b = graph.add_copy(1)
        assert graph.augment_from(b)
        assert graph.matching_size() == 2

    def test_augment_fails_when_saturated(self):
        graph = MatchingGraph([0b11])
        a = graph.add_copy(0)
        assert graph.augment_from(a)
        before = list(graph.match_of_object)
        b = graph.add_copy(1)
        assert not graph.augment_from(b)
        assert graph.match_of_object == before

    def test_player_without_objects_cannot_augment(self):
        graph = MatchingGraph([0b001, 0b011])
        node = graph.add_copy(2)
        assert not graph.augment_from(node)
        assert graph.matching_size() == 0

    def test_copies_scan_objects_in_ascending_order(self):
        # the first free object a copy reaches is its lowest-numbered one
        graph = MatchingGraph([0b10, 0b11, 0b10, 0b01])
        assert graph.augment_from(graph.add_copy(1))
        assert graph.augment_from(graph.add_copy(0))
        assert graph.match_of_object == [0, 1, -1, -1]

    def test_negative_owner_mask_rejected(self):
        with pytest.raises(PlayerOutOfRange):
            MatchingGraph([0b01, -1])

    def test_fixture_first_remainder_augments(self):
        # after the floor matching, the highest-remainder player gets a copy
        graph = MatchingGraph(FIVE_PLAYER_OWNERS.owners)
        graph.add_copy(2)
        graph.hopcroft_karp()
        node = graph.add_copy(3)
        assert graph.augment_from(node)


class TestIsvAllocation:
    def test_fixture_counts_and_ownership(self):
        allocation = isv_allocation(FIVE_PLAYER_OWNERS)
        assert allocation.counts == (1, 1, 1, 1, 0)
        for obj, player in enumerate(allocation.assignment):
            assert FIVE_PLAYER_OWNERS.owners[obj] >> player & 1

    def test_shared_object_tiebreak(self):
        allocation = isv_allocation(owner_list(2, [[0, 1]]))
        assert allocation.counts == (1, 0)

    def test_sole_owners_forced(self):
        allocation = isv_allocation(owner_list(2, [[0], [1]]))
        assert allocation.counts == (1, 1)
        assert allocation.assignment == (0, 1)

    def test_agrees_with_exact_solver(self):
        rng = random.Random(409)
        for _ in range(60):
            ol = random_owner_list(rng, rng.randint(1, 6))
            counts = isv_allocation(ol).counts
            assert counts == indivisible_shapley(game_from_owners(ol)).payoffs

    def test_invariants_on_random_lists(self):
        rng = random.Random(419)
        for _ in range(40):
            ol = random_owner_list(rng, rng.randint(1, 6))
            allocation = isv_allocation(ol)
            sv = shapley_from_owners(ol)
            assert sum(allocation.counts) == len(ol.owners)
            for obj, player in enumerate(allocation.assignment):
                assert ol.owners[obj] >> player & 1
            for i in range(ol.n):
                assert math.floor(sv[i]) <= allocation.counts[i] <= math.ceil(sv[i])
            assert in_core(game_from_owners(ol), allocation.counts)

    def test_deterministic(self):
        ol = random_owner_list(random.Random(421), 5)
        assert isv_allocation(ol) == isv_allocation(ol)

    def test_floor_copies_always_matchable(self):
        # guaranteed units can always be realised as actual objects
        rng = random.Random(433)
        for _ in range(40):
            ol = random_owner_list(rng, rng.randint(1, 6))
            sv = shapley_from_owners(ol)
            graph = MatchingGraph(ol.owners)
            for i in range(ol.n):
                for _ in range(math.floor(sv[i])):
                    graph.add_copy(i)
            assert graph.hopcroft_karp() == graph.copies


class TestIsvFromDividends:
    def test_two_coalitions(self):
        payoffs = isv_from_dividends(
            5, [(coalition([0, 1, 2]), F(2)), (coalition([3, 4]), F(1))]
        )
        assert payoffs == (1, 1, 0, 1, 0)
        assert payoffs == indivisible_shapley(two_goods_game()).payoffs

    def test_sole_ownership_base(self):
        assert isv_from_dividends(1, [(0b1, F(5))]) == (5,)

    def test_base_plus_residual(self):
        assert isv_from_dividends(2, [(0b11, F(3))]) == (2, 1)

    def test_negative_rejected(self):
        with pytest.raises(NegativeDividend):
            isv_from_dividends(2, [(0b11, F(-1))])

    def test_fractional_residue_rejected(self):
        with pytest.raises(NonIntegerResidue):
            isv_from_dividends(2, [(0b11, F(7, 2))])

    def test_whole_dividend_no_residue(self):
        assert isv_from_dividends(2, [(0b11, F(6))]) == (3, 3)

    def test_agrees_with_exact_solver(self):
        rng = random.Random(431)
        for _ in range(30):
            n = rng.randint(2, 6)
            dividends = []
            for mask in range(1, 1 << n):
                if rng.random() < 0.25:
                    dividends.append((mask, F(rng.randint(1, 4))))
            if not dividends:
                continue
            game = make_game(
                n,
                [
                    (m, sum((d for s, d in dividends if s & ~m == 0), F(0)))
                    for m in range(1, 1 << n)
                ],
            )
            assert isv_from_dividends(n, dividends) == indivisible_shapley(game).payoffs
