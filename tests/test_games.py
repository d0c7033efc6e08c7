import math
import random
from fractions import Fraction

import pytest

from indivisible import (
    Game,
    coalition,
    game_linear,
    harsanyi_dividends,
    in_core,
    is_convex,
    is_positive,
    is_size_bounded,
    make_game,
    members,
    reduced_game,
    shapley_exact,
    shapley_matrix_exact,
    unanimity_game,
)
from indivisible.errors import (
    DuplicateCoalition,
    EmptySupportCoalition,
    LengthMismatch,
    NegativePayoff,
    NonzeroEmptySet,
    PlayerCountMismatch,
    PlayerOutOfRange,
    TooManyPlayers,
)

from oracles import (
    dividends_recursive,
    floor_half_game,
    is_supermodular,
    random_convex_int_game,
    random_game,
    random_sizebounded_convex_int_game,
    shapley_by_permutations,
    two_goods_game,
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
