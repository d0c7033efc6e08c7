import math
import random
from fractions import Fraction

import pytest

import indivisible
from indivisible import (
    ApprovalProfile,
    FunctionOracle,
    Game,
    MatchingGraph,
    OwnerList,
    Region,
    RegionalVotes,
    SamplerConfig,
    SubprocessOracle,
    TableOracle,
    ValueOracle,
    coalition,
    coalition_game_from_regions,
    dhondt,
    game_from_approvals,
    game_linear,
    harmonic_tail,
    harsanyi_dividends,
    in_core,
    is_convex,
    is_positive,
    is_size_bounded,
    isv_from_dividends,
    isv_large,
    lp_distance,
    make_game,
    members,
    memoized,
    normalize_attributions,
    owner_list,
    reduced_game,
    remainder_order,
    sample_shapley,
    sample_shapley_matrix,
    select_top_k,
    shapley_exact,
    shapley_matrix_exact,
    unanimity_game,
)
from indivisible.errors import (
    AlphaOutOfRange,
    ChildExited,
    DuplicateCoalition,
    EmptySupportCoalition,
    InvalidRange,
    LengthMismatch,
    NegativeDividend,
    NegativePayoff,
    NonzeroEmptySet,
    OracleFailure,
    PlayerCountMismatch,
    PlayerOutOfRange,
    ProtocolViolation,
    SolverError,
    TooManyPlayers,
)
from indivisible.games import RationalTable, _whole, game_from_weights

from oracles import (
    coalition_seats_by_dhondt,
    dividends_recursive,
    floor_half_game,
    is_supermodular,
    random_convex_int_game,
    random_game,
    random_positive_int_game,
    random_sizebounded_convex_int_game,
    shapley_by_permutations,
    two_goods_game,
    within,
)

F = Fraction


def additive_game(weights):
    n = len(weights)
    entries = []
    for mask in range(1, 1 << n):
        v = sum(weights[i] for i in members(mask))
        if v:
            entries.append((mask, F(v)))
    return make_game(n, entries)


class TestConstruction:
    def test_unanimity_pair(self):
        g = make_game(2, [(0b11, F(1))])
        assert g.values == (F(0), F(0), F(0), F(1))

    def test_half_game_grand_value(self):
        g = floor_half_game()
        assert g.grand_value == 2
        assert g.values[coalition([1, 3])] == 1

    def test_null_single_player(self):
        g = make_game(1, [])
        assert g.values == (F(0), F(0))

    def test_defaults_to_zero(self):
        g = make_game(3, [(0b111, F(5))])
        assert g.values[0b011] == 0

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateCoalition):
            make_game(2, [(0b01, F(1)), (0b01, F(2))])

    def test_nonzero_empty_rejected(self):
        with pytest.raises(NonzeroEmptySet):
            make_game(2, [(0, F(1))])

    def test_zero_empty_tolerated(self):
        assert make_game(2, [(0, F(0))]).values[0] == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(PlayerOutOfRange):
            make_game(2, [(0b100, F(1))])

    def test_player_cap(self):
        with pytest.raises(TooManyPlayers):
            make_game(21, [])
        make_game(5, [], max_players=5)

    def test_whole_float_player_count(self):
        g = make_game(3.0, [(0b111, F(5))])
        assert type(g.n) is int and g == make_game(3, [(0b111, F(5))])
        u = unanimity_game(2.0, 0b11)
        assert type(u.n) is int and u == unanimity_game(2, 0b11)


class TestUnanimity:
    def test_two_players(self):
        g = unanimity_game(2, coalition([0, 1]))
        assert g.values == (F(0), F(0), F(0), F(1))

    def test_superset_is_one(self):
        g = unanimity_game(5, coalition([0, 1, 2]))
        assert g.values[coalition([0, 1, 2, 3])] == 1

    def test_non_superset_is_zero(self):
        g = unanimity_game(5, coalition([0, 1, 2]))
        assert g.values[coalition([0, 1])] == 0

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupportCoalition):
            unanimity_game(3, 0)


class TestLinear:
    def test_two_goods_combination(self):
        built = game_linear(
            F(2), unanimity_game(5, coalition([0, 1, 2])),
            F(1), unanimity_game(5, coalition([3, 4])),
        )
        assert built == two_goods_game()

    def test_identity(self):
        g = random_game(random.Random(7), 4)
        assert game_linear(F(1), g, F(0), g) == g

    def test_doubling(self):
        u = unanimity_game(2, 0b11)
        assert game_linear(F(1), u, F(1), u).values[0b11] == 2

    def test_mismatch_rejected(self):
        with pytest.raises(PlayerCountMismatch):
            game_linear(F(1), unanimity_game(2, 0b11), F(1), unanimity_game(3, 0b11))


class TestDividends:
    def test_unanimity_basis(self):
        d = harsanyi_dividends(unanimity_game(2, 0b11))
        assert d == (F(0), F(0), F(0), F(1))

    def test_two_goods_dividends(self):
        d = harsanyi_dividends(two_goods_game())
        for mask in range(1, 32):
            if mask == 0b00111:
                assert d[mask] == 2
            elif mask == 0b11000:
                assert d[mask] == 1
            else:
                assert d[mask] == 0

    def test_half_game_dividends(self):
        # frozen from the recursive definition: pairs 1, triples -2, grand 4
        g = floor_half_game()
        d = harsanyi_dividends(g)
        assert d == tuple(dividends_recursive(g))
        by_size = {}
        for mask in range(1, 16):
            by_size.setdefault(mask.bit_count(), set()).add(d[mask])
        assert by_size == {1: {F(0)}, 2: {F(1)}, 3: {F(-2)}, 4: {F(4)}}

    def test_matches_recursion_on_random_games(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_game(rng, rng.randint(1, 6))
            assert list(harsanyi_dividends(g)) == dividends_recursive(g)

    def test_reconstruction_identity(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 8)
            g = random_game(rng, n)
            d = harsanyi_dividends(g)
            for target in range(1 << n):
                rebuilt = F(0)
                sub = target
                while sub:
                    rebuilt += d[sub]
                    sub = (sub - 1) & target
                assert rebuilt == g.values[target]


class TestShapley:
    def test_two_goods(self):
        assert shapley_exact(two_goods_game()) == (F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2))

    def test_half_game_symmetry(self):
        assert shapley_exact(floor_half_game()) == (F(1, 2),) * 4

    def test_unanimity_with_null_player(self):
        assert shapley_exact(unanimity_game(3, 0b011)) == (F(1, 2), F(1, 2), F(0))

    def test_matches_permutation_enumeration(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_game(rng, rng.randint(1, 6))
            assert list(shapley_exact(g)) == shapley_by_permutations(g)

    def test_efficiency_and_null_player(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(2, 6)
            g = random_game(rng, n)
            # splice in a null player as index n: values ignore it
            lifted = []
            for mask in range(1 << (n + 1)):
                lifted.append(g.values[mask & ((1 << n) - 1)])
            gl = Game(n + 1, tuple(lifted))
            sv = shapley_exact(gl)
            assert sum(sv) == gl.grand_value
            assert sv[n] == 0

    def test_symmetric_players_equal(self):
        g = make_game(3, [(0b011, F(1)), (0b101, F(1)), (0b111, F(3))])
        sv = shapley_exact(g)
        # players 1 and 2 are interchangeable by construction
        assert sv[1] == sv[2]

    def test_symmetric_players_equal_on_random_games(self):
        def symmetric(g, i, j):
            rest = g.full ^ (1 << i) ^ (1 << j)
            sub = rest
            while True:
                if g.values[sub | (1 << i)] != g.values[sub | (1 << j)]:
                    return False
                if sub == 0:
                    return True
                sub = (sub - 1) & rest

        rng = random.Random(43)
        found = 0
        for _ in range(30):
            n = rng.randint(2, 5)
            # coarse value grid so symmetric pairs actually occur
            g = make_game(
                n, [(m, F(rng.randint(0, 2))) for m in range(1, 1 << n)]
            )
            sv = shapley_exact(g)
            for i in range(n):
                for j in range(i + 1, n):
                    if symmetric(g, i, j):
                        assert sv[i] == sv[j]
                        found += 1
        assert found > 5


class TestShapleyMatrix:
    def test_unanimity_pair_quarters(self):
        mat = shapley_matrix_exact(unanimity_game(2, 0b11))
        assert mat == ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))

    def test_disjoint_supports_zero(self):
        mat = shapley_matrix_exact(two_goods_game())
        assert mat[0][3] == 0

    def test_shared_dividend_entry(self):
        mat = shapley_matrix_exact(two_goods_game())
        assert mat[0][1] == F(2, 9)

    def test_symmetry_and_row_sums(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_game(rng, rng.randint(1, 6))
            mat = shapley_matrix_exact(g)
            sv = shapley_exact(g)
            for i in range(g.n):
                assert sum(mat[i]) == sv[i]
                for j in range(g.n):
                    assert mat[i][j] == mat[j][i]


class TestPredicates:
    def test_unanimity_convex(self):
        assert is_convex(unanimity_game(4, 0b0110))

    def test_half_game_not_convex(self):
        assert not is_convex(floor_half_game())

    def test_additive_convex(self):
        assert is_convex(additive_game([1, 1, 1, 1]))

    def test_convergence_of_both_convexity_checks(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_game(rng, rng.randint(1, 7))
            assert is_convex(g) == is_supermodular(g)
        for _ in range(10):
            g = random_convex_int_game(rng, rng.randint(2, 6))
            assert is_convex(g) and is_supermodular(g)

    def test_dividend_accept_agrees_with_supermodularity(self):
        """Positive games, convex games with a negative dividend, and games
        whose dividends are whole numbers of at least -1, mostly not convex."""

        def small_dividends(rng, n):
            weights = [(mask, rng.choice((-1, -1, 0, 1))) for mask in range(1, 1 << n)]
            return game_from_weights(n, weights)

        rng = random.Random(31)
        kinds = set()
        for family in (random_positive_int_game, random_convex_int_game, small_dividends):
            for _ in range(25):
                g = family(rng, rng.randint(2, 5))
                convex = is_supermodular(g)
                assert is_convex(g) == convex
                kinds.add((is_positive(g), convex))
        assert kinds == {(True, True), (False, True), (False, False)}
        # one dividend of -1 and no other: not convex
        assert not is_convex(make_game(2, [(0b11, -1)]))

    def test_positive(self):
        assert is_positive(two_goods_game())
        assert not is_positive(floor_half_game())
        assert is_positive(make_game(1, []))

    def test_size_bounded(self):
        assert is_size_bounded(floor_half_game())
        assert is_size_bounded(unanimity_game(2, 0b11))
        assert not is_size_bounded(additive_game([1, 1, 1]))


class TestCore:
    def test_half_game_center(self):
        assert in_core(floor_half_game(), [F(1, 2)] * 4)

    def test_greedy_vector_excluded(self):
        assert not in_core(two_goods_game(), [1, 1, 1, 0, 0])

    def test_unpaid_pair_excluded(self):
        assert not in_core(floor_half_game(), [1, 1, 0, 0])

    def test_inefficient_excluded(self):
        assert not in_core(two_goods_game(), [1, 1, 1, 1, 1])

    def test_length_checked(self):
        with pytest.raises(LengthMismatch):
            in_core(floor_half_game(), [1, 1])


class TestReducedGame:
    def test_two_goods_first_reduction(self):
        g = two_goods_game()
        red, kept = reduced_game(g, 0, F(1))
        assert kept == (1, 2, 3, 4)
        expect = game_linear(
            F(1), unanimity_game(4, coalition([0, 1])),
            F(1), unanimity_game(4, coalition([2, 3])),
        )
        assert red == expect

    def test_two_goods_second_reduction(self):
        first, _ = reduced_game(two_goods_game(), 0, F(1))
        second, kept = reduced_game(first, 0, F(1))
        assert kept == (1, 2, 3)
        assert second == unanimity_game(3, coalition([1, 2]))

    def test_null_player_zero_reduction_restricts(self):
        g = unanimity_game(3, 0b011)  # player 2 is null
        red, kept = reduced_game(g, 2, F(0))
        assert kept == (0, 1)
        assert red == unanimity_game(2, 0b11)

    def test_errors(self):
        g = two_goods_game()
        with pytest.raises(PlayerOutOfRange):
            reduced_game(g, 7, F(0))
        with pytest.raises(NegativePayoff):
            reduced_game(g, 0, F(-1))

    def test_reduction_preserves_convexity_and_size_bound(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(3, 6)
            g = random_sizebounded_convex_int_game(rng, n)
            assert is_convex(g) and is_size_bounded(g)
            i = rng.randrange(n)
            lo = math.ceil(g.values[1 << i])
            hi = math.floor(g.grand_value - g.values[g.full ^ (1 << i)])
            if lo > hi:
                continue
            c = rng.randint(max(lo, 0), hi)
            red, _ = reduced_game(g, i, F(c))
            assert is_convex(red)
            if c >= 1:
                assert is_size_bounded(red)

    def test_core_vectors_lift_back(self):
        from oracles import enumerate_integer_core

        rng = random.Random(37)
        checked = 0
        for _ in range(20):
            n = rng.randint(3, 5)
            g = random_convex_int_game(rng, n)
            i = rng.randrange(n)
            hi = g.grand_value - g.values[g.full ^ (1 << i)]
            # the lift argument needs c to cover the leaver's solo worth
            lo = max(0, math.ceil(g.values[1 << i]))
            if hi < lo or hi.denominator != 1:
                continue
            c = rng.randint(lo, int(hi))
            red, kept = reduced_game(g, i, F(c))
            for y in enumerate_integer_core(red)[:5]:
                lifted = [0] * n
                lifted[i] = c
                for new_idx, old in enumerate(kept):
                    lifted[old] = y[new_idx]
                assert in_core(g, lifted)
                checked += 1
        assert checked > 10

    def test_shapley_in_core_for_convex(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_convex_int_game(rng, rng.randint(2, 7))
            assert in_core(g, shapley_exact(g))


def reduction_reference(g, i, c):
    """Reduced table computed entry by entry on Fractions."""
    m = g.n - 1
    table = [F(0)] * (1 << m)
    for mask in range(1, 1 << m):
        old = (mask & ((1 << i) - 1)) | ((mask >> i) << (i + 1))
        if mask == (1 << m) - 1:
            table[mask] = g.grand_value - c
        else:
            table[mask] = max(g.values[old | (1 << i)] - c, g.values[old])
    return tuple(table)


class TestRepresentation:
    def test_fraction_table_equals_make_game(self):
        g = Game(2, (F(0), F(1, 2), F(2, 3), F(7, 6)))
        built = make_game(2, [(0b01, 0.5), (0b10, F(4, 6)), (0b11, "14/12")])
        assert g == built
        assert g.values.den == built.values.den == 6

    def test_equal_after_denominator_shrinks(self):
        g = make_game(2, [(0b01, F(1, 3)), (0b10, F(1)), (0b11, F(2))])
        red = reduced_game(g, 0, F(0)).game
        assert red == make_game(1, [(0b1, F(2))])
        assert red.values.den == 1

    def test_entries_are_fractions(self):
        for g in (two_goods_game(), random_game(random.Random(3), 3)):
            for mask in range(1 << g.n):
                assert isinstance(g.values[mask], Fraction)
                assert isinstance(g.value(mask), Fraction)
            assert isinstance(harsanyi_dividends(g)[g.full], Fraction)

    def test_reduced_game_fractional_price(self):
        rng = random.Random(43)
        for _ in range(30):
            g = random_game(rng, rng.randint(2, 6), denominator=rng.choice([1, 4, 6]))
            i = rng.randrange(g.n)
            c = F(rng.randint(0, 12), rng.choice([1, 5, 7]))
            red = reduced_game(g, i, c).game
            assert red.values == reduction_reference(g, i, c)

    def test_twenty_players(self):
        rng = random.Random(20)
        n = 20
        dividends = {}
        while len(dividends) < 200:
            dividends[coalition(rng.sample(range(n), rng.randint(8, 14)))] = rng.randint(1, 5)
        table = [0] * (1 << n)
        for mask, d in dividends.items():
            rest = ((1 << n) - 1) ^ mask
            sub = rest
            while True:
                table[mask | sub] += d
                if sub == 0:
                    break
                sub = (sub - 1) & rest
        g = make_game(n, [(m, v) for m, v in enumerate(table) if v])
        found = harsanyi_dividends(g)
        assert {m: d for m, d in enumerate(found) if d} == dividends
        expected = [F(0)] * n
        for mask, d in dividends.items():
            for i in members(mask):
                expected[i] += F(d, mask.bit_count())
        assert shapley_exact(g) == tuple(expected)


class TestRationalTable:
    TABLE = RationalTable([0, 3, 4], 6)
    SAME = (F(0), F(1, 2), F(2, 3))

    @pytest.mark.parametrize("field", ["nums", "den", "other"])
    def test_attributes_cannot_be_set(self, field):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(self.TABLE, field, 1)
        assert self.TABLE.nums == (0, 3, 4) and self.TABLE.den == 6

    def test_slice_is_a_tuple_of_fractions(self):
        assert self.TABLE[1:] == (F(1, 2), F(2, 3))
        assert self.TABLE[::-2] == (F(2, 3), F(0))
        assert all(type(x) is Fraction for x in self.TABLE[:])

    def test_equal_only_to_tables_and_tuples(self):
        assert self.TABLE == self.SAME
        assert self.TABLE == RationalTable([0, 6, 8], 12)  # stored over the least denominator
        assert self.TABLE != list(self.SAME)
        assert self.TABLE != {0, F(1, 2), F(2, 3)}
        assert self.TABLE.__eq__(list(self.SAME)) is NotImplemented

    def test_hash_agrees_with_the_equal_tuple(self):
        assert hash(self.TABLE) == hash(self.SAME)
        assert len({self.TABLE, self.SAME, RationalTable.of(self.SAME)}) == 1

    def test_repr(self):
        assert repr(self.TABLE) == "RationalTable([0, 3, 4], den=6)"
        assert repr(RationalTable([2, 4], 2)) == "RationalTable([1, 2], den=1)"


NAN, INF = float("nan"), float("inf")
G1 = Game(1, (F(0), F(1)))

BAD_NUMBERS = {
    "make_game nan": lambda: make_game(1, [(1, NAN)]),
    "make_game inf": lambda: make_game(1, [(1, -INF)]),
    "make_game None": lambda: make_game(1, [(1, None)]),
    "make_game abc": lambda: make_game(1, [(1, "abc")]),
    "Game nan": lambda: Game(1, (0, NAN)),
    "Game None": lambda: Game(1, (0, None)),
    "game_linear inf": lambda: game_linear(INF, G1, 1, G1),
    "game_linear abc": lambda: game_linear(1, G1, "abc", G1),
    "reduced_game nan": lambda: reduced_game(G1, 0, NAN),
    "reduced_game None": lambda: reduced_game(G1, 0, None),
    "in_core inf": lambda: in_core(G1, [INF]),
    "in_core abc": lambda: in_core(G1, ["abc"]),
    "isv_from_dividends nan": lambda: isv_from_dividends(1, [(1, NAN)]),
    "isv_from_dividends None": lambda: isv_from_dividends(1, [(1, None)]),
    "lp_distance p=1.5": lambda: lp_distance([1], [F(1, 2)], 1.5),
    "lp_distance p=nan": lambda: lp_distance([1], [F(1, 2)], NAN),
    "lp_distance p=inf": lambda: lp_distance([1], [F(1, 2)], INF),
    "lp_distance x=nan": lambda: lp_distance([NAN], [F(1, 2)], 2),
    "isv_large total=nan": lambda: isv_large([1.0], [[0.0]], NAN),
    "isv_large total=inf": lambda: isv_large([1.0], [[0.0]], INF),
    "harmonic_tail 1.5": lambda: harmonic_tail(1.5, 3),
    "harmonic_tail inf": lambda: harmonic_tail(1, INF),
    "normalize nan phi": lambda: normalize_attributions([NAN, 1.0], [[0.0, 0.0], [0.0, 0.0]], 1),
    "normalize inf matrix": lambda: normalize_attributions([1.0], [[INF]], 1),
    "normalize nan target": lambda: normalize_attributions([1.0], [[0.0]], NAN),
}


@pytest.mark.parametrize("call", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_bad_number_is_invalid_range(call):
    with pytest.raises(InvalidRange):
        call()


def test_whole_float_counts_still_accepted():
    assert lp_distance([1, 0], [F(1, 2), F(1, 2)], 2.0) == F(1, 2)
    assert isv_large([2.0, 1.0], [[0.0, 0.0], [0.0, 0.0]], 3.0) == [2, 1]
    assert harmonic_tail(2.0, 2) == 0.5
    assert game_from_approvals(ApprovalProfile(("A",), ((1, 2.0),)), 3.0).values[1] == 3
    assert dhondt([1, 2], 3.0) == (1, 2)
    assert sample_shapley(FunctionOracle(2.0, float), SamplerConfig(exhaustive=True)) == [1.0, 2.0]


def test_whole_reads_ints_bools_and_rationals_alike():
    assert _whole(7, "count", 7) == 7
    for flag in (True, False):  # a bool is read as the int it equals, never returned as is
        assert type(_whole(flag, "count", 0)) is int and _whole(flag, "count", 0) == flag
    assert _whole(F(6, 2), "count", 0) == 3 and _whole("4", "count", 0) == 4
    for bad in (2, True, 2.0):
        with pytest.raises(InvalidRange, match=rf"count must be a whole number >= 3, got {bad!r}$"):
            _whole(bad, "count", 3)


def _oracle_query(command, n):
    with SubprocessOracle(command, n) as oracle:
        return oracle.evaluate(1)


G3 = unanimity_game(3, 0b011)
PROFILE = ApprovalProfile(("A", "B"), ((0b01, 3), (0b11, 1)))
ONE = SamplerConfig(samples=1)


def _refuse(mask):
    raise RuntimeError("this oracle must not be queried")


def _child_gone(mask):
    raise ChildExited("the child behind this oracle is gone")


class ShortBatchOracle(ValueOracle):
    """Answers every batch with one value too few."""

    n = 2

    def evaluate_many(self, masks):
        return [float(mask) for mask in masks[1:]]


def _graph_with_copy():
    graph = MatchingGraph([1])
    graph.add_copy(0)
    return graph


def _matched_copy_of_2():
    graph = MatchingGraph([0b100])
    graph.augment_from(graph.add_copy(2))
    return graph


# Each call must raise its error promptly: no hang, no silent wrong answer,
# no bare TypeError/ValueError/IndexError.
GUARANTEES = {
    "members -1": (lambda: members(-1), PlayerOutOfRange),
    "OwnerList -1": (lambda: OwnerList(2, (-1,)), PlayerOutOfRange),
    "isv_from_dividends -1": (lambda: isv_from_dividends(2, [(-1, 1)]), PlayerOutOfRange),
    "unanimity_game -1": (lambda: unanimity_game(3, -1), PlayerOutOfRange),
    "TableOracle -1": (lambda: TableOracle(G3).evaluate(-1), PlayerOutOfRange),
    "TableOracle 8": (lambda: TableOracle(G3).evaluate(8), PlayerOutOfRange),
    "coalition [-1]": (lambda: coalition([-1]), PlayerOutOfRange),
    "owner_list [[-1]]": (lambda: owner_list(2, [[-1]]), PlayerOutOfRange),
    "make_game mask 1.5": (lambda: make_game(2, [(1.5, 1)]), PlayerOutOfRange),
    "make_game n=2.5": (lambda: make_game(2.5, []), PlayerOutOfRange),
    "make_game entry (1,)": (lambda: make_game(2, [(1,)]), InvalidRange),
    "make_game entry 1": (lambda: make_game(2, [1]), InvalidRange),
    "make_game entry (1, 1, 1)": (lambda: make_game(2, [(1, 1, 1)]), InvalidRange),
    "isv_from_dividends entry (3,)": (lambda: isv_from_dividends(2, [(3,)]), InvalidRange),
    "Game n=-1": (lambda: Game(-1, (0,)), InvalidRange),
    "OwnerList n=2.5": (lambda: OwnerList(2.5, (1,)), InvalidRange),
    "isv_from_dividends n=2.5": (lambda: isv_from_dividends(2.5, [(1, 1)]), InvalidRange),
    "ApprovalProfile mult 1.5": (lambda: ApprovalProfile(("A",), ((1, 1.5),)), InvalidRange),
    "game_from_approvals 2.5 seats": (lambda: game_from_approvals(PROFILE, 2.5), InvalidRange),
    "Region 2.5 seats": (
        lambda: coalition_game_from_regions(RegionalVotes((Region(2.5, (3, 4)),)), (0, 1), [()]),
        InvalidRange,
    ),
    "member party 1.5": (
        lambda: coalition_game_from_regions(RegionalVotes((Region(2, (3, 4)),)), (0, 1.5), [()]),
        PlayerOutOfRange,
    ),
    "member party 0 twice": (
        lambda: coalition_game_from_regions(
            RegionalVotes((Region(5, (100, 50)),)), [0, 0], [(60,)]
        ),
        InvalidRange,
    ),
    "dhondt 2.5 seats": (lambda: dhondt([1, 2], 2.5), InvalidRange),
    "SubprocessOracle n=2.5": (lambda: _oracle_query("cat", 2.5), InvalidRange),
    "make_game exponent 300000": (
        lambda: make_game(2, [(1, "1e300000"), (3, "1e-300000")]),
        InvalidRange,
    ),
    "reduced_game i=1.5": (lambda: reduced_game(G3, 1.5, 0), PlayerOutOfRange),
    "dhondt vote 'a'": (lambda: dhondt(["a", 1], 1), InvalidRange),
    "Region vote None": (lambda: Region(1, (None, 1)), InvalidRange),
    "FunctionOracle n=-1": (lambda: sample_shapley(FunctionOracle(-1, float), ONE), InvalidRange),
    "FunctionOracle n=2.5": (lambda: sample_shapley(FunctionOracle(2.5, float), ONE), InvalidRange),
    "FunctionOracle n=0": (lambda: sample_shapley(FunctionOracle(0, float), ONE), InvalidRange),
    "FunctionOracle nan": (
        lambda: sample_shapley(FunctionOracle(2, lambda mask: NAN), ONE),
        ProtocolViolation,
    ),
    "FunctionOracle worth 1 on the empty coalition": (
        lambda: sample_shapley_matrix(
            FunctionOracle(2, lambda mask: 1.0), SamplerConfig(exhaustive=True)
        ),
        ProtocolViolation,
    ),
    "evaluate_many one value short": (
        lambda: sample_shapley(ShortBatchOracle(), ONE),
        ProtocolViolation,
    ),
    "memoized nan": (
        lambda: memoized(FunctionOracle(2, lambda mask: NAN)).evaluate(1),
        ProtocolViolation,
    ),
    "memoized mask 1.5": (
        lambda: memoized(FunctionOracle(2, lambda mask: NAN)).evaluate(1.5),
        PlayerOutOfRange,
    ),
    "isv_large no players": (lambda: isv_large([], [], 1), InvalidRange),
    "isv_large nan phi": (lambda: isv_large([NAN, 1.0], [[0.0, 0.0], [0.0, 0.0]], 2), InvalidRange),
    "isv_large nan matrix": (lambda: isv_large([1.0], [[NAN]], 1), InvalidRange),
    "isv_large alpha='x'": (lambda: isv_large([1.0], [[0.0]], 1, alpha="x"), AlphaOutOfRange),
    "isv_large alpha=None": (lambda: isv_large([1.0], [[0.0]], 1, alpha=None), AlphaOutOfRange),
    "select_top_k alpha='x'": (
        lambda: select_top_k(TableOracle(G3), 1, ONE, alpha="x"),
        AlphaOutOfRange,
    ),
    "select_top_k alpha=None": (
        lambda: select_top_k(TableOracle(G3), 1, ONE, alpha=None),
        AlphaOutOfRange,
    ),
    "select_top_k alpha=2 before sampling": (
        lambda: select_top_k(FunctionOracle(2, _refuse), 1, ONE, alpha=2),
        AlphaOutOfRange,
    ),
    "remainder_order nan": (lambda: remainder_order([NAN, 1.0]), InvalidRange),
    "remainder_order inf": (lambda: remainder_order([INF]), InvalidRange),
    "remainder_order 'x'": (lambda: remainder_order(["x"]), InvalidRange),
    "members 1.5": (lambda: members(1.5), PlayerOutOfRange),
    "MatchingGraph [1.5]": (lambda: MatchingGraph([1.5]), PlayerOutOfRange),
    "MatchingGraph [None]": (lambda: MatchingGraph([None]), PlayerOutOfRange),
    "MatchingGraph [0]": (lambda: MatchingGraph([0]), EmptySupportCoalition),
    "MatchingGraph assignment unmatched": (lambda: MatchingGraph([1]).assignment(), InvalidRange),
    "MatchingGraph augment_from 0 without copies": (
        lambda: MatchingGraph([1]).augment_from(0),
        InvalidRange,
    ),
    "MatchingGraph augment_from -1 without copies": (
        lambda: MatchingGraph([1]).augment_from(-1),
        InvalidRange,
    ),
    "MatchingGraph augment_from -1": (lambda: _graph_with_copy().augment_from(-1), InvalidRange),
    "MatchingGraph counts 0": (lambda: _matched_copy_of_2().counts(0), InvalidRange),
    "MatchingGraph counts 2": (lambda: _matched_copy_of_2().counts(2), InvalidRange),
    "MatchingGraph counts -1": (lambda: _matched_copy_of_2().counts(-1), InvalidRange),
    "MatchingGraph counts 2.5": (lambda: _matched_copy_of_2().counts(2.5), InvalidRange),
    "coalition [10**400]": (lambda: coalition([10**400]), PlayerOutOfRange),
    "Game n=10**400": (lambda: Game(10**400, (0,)), LengthMismatch),
    "FunctionOracle evaluate 99": (
        lambda: FunctionOracle(2, lambda mask: mask).evaluate(99),
        PlayerOutOfRange,
    ),
    # an int past 4300 digits cannot be printed; its message must still be made
    "Game n=-10**5000": (lambda: Game(-(10**5000), (0,)), InvalidRange),
    "coalition [-10**5000]": (lambda: coalition([-(10**5000)]), PlayerOutOfRange),
    "members -10**5000": (lambda: members(-(10**5000)), PlayerOutOfRange),
    "harmonic_tail -10**5000": (lambda: harmonic_tail(-(10**5000), 1), InvalidRange),
    "isv_from_dividends -10**5000": (
        lambda: isv_from_dividends(2, [(1, -(10**5000))]),
        NegativeDividend,
    ),
    # a whole float player count is read as an int, so the next check is reached
    "make_game n=3.0": (lambda: make_game(3.0, [(0, 1)]), NonzeroEmptySet),
    "unanimity_game n=2.0": (lambda: unanimity_game(2.0, 1, max_players=1), TooManyPlayers),
    "FunctionOracle None": (
        lambda: sample_shapley(FunctionOracle(2, lambda mask: None), SamplerConfig(samples=2)),
        ProtocolViolation,
    ),
    "SamplerConfig exhaustive 'no'": (
        lambda: sample_shapley(TableOracle(G3), SamplerConfig(samples=3, exhaustive="no")),
        InvalidRange,
    ),
    # a callable's own error is wrapped; an OracleFailure passes through as it is
    "FunctionOracle RuntimeError": (
        lambda: FunctionOracle(2, _refuse).evaluate(1),
        OracleFailure,
    ),
    "FunctionOracle ChildExited": (
        lambda: FunctionOracle(2, _child_gone).evaluate(1),
        ChildExited,
    ),
    "reduced_game last player below its worth": (
        lambda: reduced_game(unanimity_game(1, 1), 0, 0),
        NonzeroEmptySet,
    ),
    "coalition_game_from_regions 2 outsider lists for 1 region": (
        lambda: coalition_game_from_regions(RegionalVotes((Region(2, (3, 4)),)), (0, 1), [(), ()]),
        InvalidRange,
    ),
    "MatchingGraph augment_from a matched copy": (
        lambda: _matched_copy_of_2().augment_from(0),
        InvalidRange,
    ),
}

# Public names that no row above (nor in BAD_NUMBERS) calls, each with the reason.
# Calls that legitimately ask for unbounded work have no row either: isv_large
# with a total of 10**9, lp_distance with a huge exponent, harmonic_tail(1, 10**9),
# SamplerConfig with about 10**11 samples, and isv_oracle_convex on a game with no
# quota-respecting core vector, where it tries every round-up set.
NO_ROW = {
    "MAX_TABLE_PLAYERS": "a constant",
    "AllocationResult": "a result record",
    "IsvResult": "a result record",
    "ReducedGame": "a result record",
    "OracleFailure": "an exception class",
    "SolverError": "an exception class",
    "ValidationError": "an exception class",
    "ValueOracle": "abstract; ShortBatchOracle is the row for a subclass that breaks its contract",
    "harsanyi_dividends": "takes only a Game; the Game rows cover a bad one",
    "shapley_exact": "takes only a Game; the Game rows cover a bad one",
    "shapley_matrix_exact": "takes only a Game; the Game rows cover a bad one",
    "is_convex": "takes only a Game; the Game rows cover a bad one",
    "is_positive": "takes only a Game; the Game rows cover a bad one",
    "is_size_bounded": "takes only a Game; the Game rows cover a bad one",
    "indivisible_shapley": "takes only a Game; the Game rows cover a bad one",
    "isv_oracle_convex": "takes only a Game; the Game rows cover a bad one",
    "game_from_owners": "takes an OwnerList; the OwnerList rows cover a bad one",
    "shapley_from_owners": "takes only an OwnerList; the OwnerList rows cover a bad one",
    "isv_allocation": "takes only an OwnerList; the OwnerList rows cover a bad one",
    "apportion_isv": "its profile and seat count go to game_from_approvals, which has rows",
}


@pytest.mark.parametrize("call, error", GUARANTEES.values(), ids=GUARANTEES.keys())
def test_bad_coalition_or_count_raises_solver_error(call, error):
    assert issubclass(error, SolverError)
    with within(5), pytest.raises(error):
        call()


def test_dhondt_cost_does_not_grow_with_seats():
    # 3/500000001, 1/166666667 and 2/333333334 tie; the larger raw vote wins
    with within(5):
        assert dhondt([3, 1, 2], 10**9) == (500000001, 166666666, 333333333)


def test_coalition_cost_does_not_grow_with_seats():
    # the merged list of all 8 members can win far more than 2**8 seats, and
    # a coalition of members without votes wins none
    rv = RegionalVotes((Region(10**9, (5, 0, 7, 3, 3, 11, 2, 0, 6)),))
    outsiders = [(13, 4)]
    with within(5):
        g = coalition_game_from_regions(rv, range(8), outsiders)
    for mask in (0b1, 0b10, 0b10000010, 0b101100, 0b11111111):
        assert g.values[mask] == coalition_seats_by_dhondt(rv, range(8), outsiders, mask)


def test_every_public_name_has_a_row_or_a_reason():
    """A name counts as covered when a row's id starts with it or its call uses it."""
    rows = {**BAD_NUMBERS, **{name: call for name, (call, _) in GUARANTEES.items()}}
    covered = {name.split()[0] for name in rows}
    for call in rows.values():
        covered.update(call.__code__.co_names)
    public = set(indivisible.__all__)
    assert public - covered - NO_ROW.keys() == set()
    assert NO_ROW.keys() <= public - covered  # no stale or needless exclusion
