import hashlib
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
    remainder_order,
    shapley_exact,
    shapley_from_owners,
)
from indivisible import matching
from indivisible.errors import (
    DuplicateCoalition,
    EmptySupportCoalition,
    NegativeDividend,
    NonIntegerResidue,
    PlayerOutOfRange,
)

from oracles import (
    FIVE_PLAYER_OWNERS,
    max_matching_size,
    random_owner_list,
    reference_allocation,
    sized_owner_list,
    skewed_owner_list,
    two_goods_game,
    within,
)

F = Fraction


def assert_owner_quotas(ol, allocation):
    """Each object goes to an owner, the counts tally the assignment, and each
    count is within the floor and ceiling of the player's Shapley value."""
    sv = shapley_from_owners(ol)
    tally = [0] * ol.n
    for obj, player in enumerate(allocation.assignment):
        assert ol.owners[obj] >> player & 1
        tally[player] += 1
    assert list(allocation.counts) == tally
    assert len(allocation.assignment) == len(ol.owners)
    for i in range(ol.n):
        assert math.floor(sv[i]) <= allocation.counts[i] <= math.ceil(sv[i])


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

    def test_objects_counts_every_listed_object(self):
        assert MatchingGraph([]).objects == 0
        graph = MatchingGraph([0b01, 0b11, 0b01])
        graph.add_copy(0)
        assert graph.objects == 3  # copies do not change it

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

    def test_augment_takes_a_path_with_fewest_players(self):
        # player 0's first object leads through players 1 and 2 to object 2;
        # its later object 3 leads through player 3 alone to object 4
        graph = MatchingGraph([0b0011, 0b0110, 0b0100, 0b1001, 0b1000])
        for p in (1, 2, 3):
            assert graph.augment_from(graph.add_copy(p))
        assert graph.match_of_object == [0, 1, -1, 2, -1]
        assert graph.augment_from(graph.add_copy(0))
        assert graph.match_of_object == [0, 1, -1, 3, 2]

    def test_path_found_before_its_finder_ends_its_scan(self):
        # player 0 reaches player 1, whose objects 0, 1 and 2 are all held;
        # the holder of object 1 has a free object, so object 2's holder,
        # still unscanned, never matters
        graph = MatchingGraph([0b0011, 0b0110, 0b1010, 0b0100, 0b1000])
        for p in (1, 2, 3):
            assert graph.augment_from(graph.add_copy(p))
        assert graph.match_of_object == [0, 1, 2, -1, -1]
        assert graph.augment_from(graph.add_copy(0))
        assert graph.match_of_object == [3, 0, 2, 1, -1]

    def test_first_reached_player_with_a_free_object_wins(self):
        # players 2 and 1 both hold an object of player 0 and both have a
        # free object; player 2 is reached first, through object 0
        graph = MatchingGraph([0b101, 0b011, 0b010, 0b100])
        for p in (1, 2):
            assert graph.augment_from(graph.add_copy(p))
        assert graph.match_of_object == [1, 0, -1, -1]
        assert graph.augment_from(graph.add_copy(0))
        assert graph.match_of_object == [2, 0, -1, 1]

    def test_agrees_with_brute_force_maximum(self):
        rng = random.Random(443)
        failed = failed_again = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            owners = [
                coalition(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 5))
            ]
            graph = MatchingGraph(owners)
            tried_and_failed = set()
            for _ in range(rng.randint(1, 8)):
                graph.add_copy(rng.randrange(n))
                action = rng.random()
                if action < 0.2:
                    assert graph.hopcroft_karp() == max_matching_size(graph.copy_player, owners)
                elif action < 0.9:
                    free = [c for c, obj in enumerate(graph.match_of_copy) if obj == -1]
                    node = rng.choice(free)
                    kept = [p for p, obj in zip(graph.copy_player, graph.match_of_copy) if obj != -1]
                    grows = max_matching_size(kept + [graph.copy_player[node]], owners) > len(kept)
                    before = list(graph.match_of_object)
                    assert graph.augment_from(node) == grows
                    if not grows:
                        assert graph.match_of_object == before
                        failed += 1
                        failed_again += graph.copy_player[node] in tried_and_failed
                        tried_and_failed.add(graph.copy_player[node])
                for node, obj in enumerate(graph.match_of_copy):
                    if obj != -1:
                        assert graph.match_of_object[obj] == node
                        assert owners[obj] >> graph.copy_player[node] & 1
                assert graph.matching_size() == sum(m != -1 for m in graph.match_of_object)
            assert graph.hopcroft_karp() == max_matching_size(graph.copy_player, owners)
        # failed searches, and searches from players that failed before, both ran
        assert failed > 50 and failed_again > 10

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

    def test_agrees_with_exact_solver_at_16_players(self):
        # the sizes the docs promise; each game table has up to 2^16 entries
        rng = random.Random(467)
        with within(30):
            for _ in range(24):
                n, objects = rng.randint(14, 16), rng.randint(50, 3000)
                make = skewed_owner_list if rng.random() < 0.5 else sized_owner_list
                ol = make(rng, n, objects)
                counts = isv_allocation(ol).counts
                assert counts == indivisible_shapley(game_from_owners(ol)).payoffs

    @pytest.mark.parametrize("n", [18, 20])
    def test_agrees_with_exact_solver_at_table_cap(self, n):
        ol = sized_owner_list(random.Random(n), n, 2000)
        with within(30):
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

    def test_agrees_with_reference_search(self):
        # ownership skewed toward a few players, so many searches fail
        rng = random.Random(461)
        for _ in range(300):
            ol = skewed_owner_list(rng, rng.randint(1, 40), rng.randint(1, 300))
            allocation = isv_allocation(ol)
            assert (allocation.assignment, allocation.counts) == reference_allocation(ol)

    def test_remainder_copies_follow_remainder_order(self, monkeypatch):
        graphs = []

        class Recorded(MatchingGraph):
            def __init__(self, object_owners):
                super().__init__(object_owners)
                graphs.append(self)

            def _add_matched(self, player, units):
                # the floor pass adds one player's floor copies per call
                matched = super()._add_matched(player, units)
                self.floor_copies = self.copies
                return matched

        monkeypatch.setattr(matching, "MatchingGraph", Recorded)
        rng = random.Random(463)
        for _ in range(100):
            ol = skewed_owner_list(rng, rng.randint(1, 30), rng.randint(1, 100))
            isv_allocation(ol)
            graph = graphs.pop()
            sv = shapley_from_owners(ol)
            expected = [i for i in remainder_order(sv) if sv[i] != math.floor(sv[i])]
            assert graph.copy_player[graph.floor_copies :] == expected

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


class TestScale:
    """Thousands of players and objects; augmenting paths thousands of steps long."""

    CHAIN = 3000

    def test_chain_of_3000_players(self):
        # object j is owned by players j and j + 1
        ol = OwnerList(self.CHAIN, tuple(0b11 << j for j in range(self.CHAIN - 1)))
        allocation = isv_allocation(ol)
        assert allocation.counts == (1,) * (self.CHAIN - 1) + (0,)
        for obj, player in enumerate(allocation.assignment):
            assert ol.owners[obj] >> player & 1

    def test_chain_as_unit_dividends(self):
        dividends = [(0b11 << j, F(1)) for j in range(self.CHAIN - 1)]
        payoffs = isv_from_dividends(self.CHAIN, dividends)
        assert payoffs == (1,) * (self.CHAIN - 1) + (0,)

    def test_200_players_5000_objects(self):
        ol = sized_owner_list(random.Random(449), 200, 5000)
        allocation = isv_allocation(ol)
        assert_owner_quotas(ol, allocation)

    def test_200_players_5000_objects_assignment_is_pinned(self):
        # the CLI prints the assignment, so a change of path order changes output
        ol = sized_owner_list(random.Random(449), 200, 5000)
        owners = ",".join(map(str, isv_allocation(ol).assignment))
        assert hashlib.sha256(owners.encode()).hexdigest() == (
            "0e3b3d6e21101559bdc713dabe7bb8223e3a2de91878080914af6d2589679cc3"
        )

    def test_2000_players_20000_objects(self):
        with within(10):
            ol = sized_owner_list(random.Random(457), 2000, 20000)
            assert_owner_quotas(ol, isv_allocation(ol))


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

    def test_empty_coalition_rejected(self):
        with pytest.raises(EmptySupportCoalition):
            isv_from_dividends(2, [(0b01, F(1)), (0, F(1))])

    def test_duplicate_coalition_rejected(self):
        with pytest.raises(DuplicateCoalition):
            isv_from_dividends(2, [(0b11, F(2)), (0b01, F(1)), (0b11, F(2))])

    def test_zero_dividend_pays_nothing(self):
        assert isv_from_dividends(2, [(0b11, F(0))]) == (0, 0)
        with_zero = isv_from_dividends(3, [(0b011, F(0)), (0b111, F(4)), (0b100, F(0))])
        assert with_zero == isv_from_dividends(3, [(0b111, F(4))]) == (2, 1, 1)

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
