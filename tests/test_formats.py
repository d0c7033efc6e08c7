import random
from fractions import Fraction

import pytest

from indivisible import ApprovalProfile, Region, RegionalVotes
from indivisible.errors import ParseError, TooManyPlayers
from indivisible.formats import (
    format_approval_profile,
    format_game,
    format_owner_list,
    format_regional,
    format_value,
    parse_approval_profile,
    parse_game,
    parse_owner_list,
    parse_regional,
    parse_vector,
)

from oracles import floor_half_game, random_game, random_owner_list, two_goods_game

F = Fraction

GAME_TEXT = """\
players 5
# three players share two goods, two share one
0,1,2 2
3,4 1
0,3,4 1
1,3,4 1
2,3,4 1
0,1,2,3 2
0,1,2,4 2
0,1,3,4 1
0,2,3,4 1
1,2,3,4 1
0,1,2,3,4 3
"""


class TestGameFormat:
    def test_parse_known_game(self):
        assert parse_game(GAME_TEXT) == two_goods_game()

    def test_fractions_and_negatives(self):
        g = parse_game("players 2\n0 -1/2\n0,1 3\n")
        assert g.values[0b01] == F(-1, 2)
        assert g.values[0b11] == 3

    def test_round_trip(self):
        rng = random.Random(601)
        for _ in range(20):
            g = random_game(rng, rng.randint(1, 6))
            assert parse_game(format_game(g)) == g

    def test_round_trip_half_game(self):
        g = floor_half_game()
        text = format_game(g)
        assert parse_game(text) == g
        assert format_game(parse_game(text)) == text

    def test_unlisted_defaults_zero(self):
        g = parse_game("players 3\n0,1,2 1\n")
        assert g.values[0b011] == 0

    def test_empty_coalition_rejected(self):
        with pytest.raises(ParseError):
            parse_game("players 2\n 1\n")

    def test_descending_indices_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_game("players 3\n1,0 1\n", source="bad.game")
        assert "bad.game:2" in str(exc.value)

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            parse_game("players 2\n0,1 1\n0,1 2\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError):
            parse_game("players 2\n0,5 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ParseError):
            parse_game("players 2\n0,1 abc\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_game("0,1 1\n")


class TestOwnerFormat:
    def test_parse(self):
        ol = parse_owner_list("players 5\n0,1,2\n# comment\n2,3\n")
        assert ol.n == 5
        assert ol.owners == (0b00111, 0b01100)

    def test_round_trip(self):
        rng = random.Random(607)
        for _ in range(20):
            ol = random_owner_list(rng, rng.randint(1, 6))
            assert parse_owner_list(format_owner_list(ol)) == ol

    def test_extra_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_owner_list("players 3\n0,1 5\n")


class TestBallotFormat:
    def test_parse(self):
        p = parse_approval_profile("parties 3 A B C\n10 0,1\n5 2\n")
        assert p.parties == ("A", "B", "C")
        assert p.ballots == ((0b011, 10), (0b100, 5))

    def test_round_trip(self):
        p = ApprovalProfile(("Left", "Mid", "Right"), ((0b011, 4), (0b100, 9)))
        assert parse_approval_profile(format_approval_profile(p)) == p

    def test_name_count_checked(self):
        with pytest.raises(ParseError):
            parse_approval_profile("parties 3 A B\n1 0\n")

    def test_zero_count_rejected(self):
        with pytest.raises(ParseError):
            parse_approval_profile("parties 2 A B\n0 0,1\n")


class TestRegionalFormat:
    def test_parse(self):
        names, rv, outsiders = parse_regional(
            "parties 2 KO NL\nregion 3 100 80 | 30 20\nregion 2 50 40\n"
        )
        assert names == ("KO", "NL")
        assert rv.regions == (Region(3, (100, 80)), Region(2, (50, 40)))
        assert outsiders == ((30, 20), ())

    def test_round_trip(self):
        names = ("A", "B", "C")
        rv = RegionalVotes((Region(4, (10, 20, 30)), Region(2, (5, 0, 1))))
        outsiders = ((7,), ())
        text = format_regional(names, rv, outsiders)
        assert parse_regional(text) == (names, rv, outsiders)

    def test_vote_arity_checked(self):
        with pytest.raises(ParseError):
            parse_regional("parties 2 A B\nregion 3 100\n")


class TestValues:
    def test_format_value(self):
        assert format_value(F(3)) == "3"
        assert format_value(F(-7, 2)) == "-7/2"

    def test_parse_vector(self):
        assert parse_vector("1/2,1,-3/4") == (F(1, 2), F(1), F(-3, 4))

    def test_parse_vector_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_vector("1/2,x")


class TestValueSyntax:
    """Game values accept exactly what ``Fraction(token)`` accepts."""

    @pytest.mark.parametrize(
        "token", ["3", "+3", "-3/4", "1_0", "\u0663", "3.5", "1e2", "-0", "1e4300"]
    )
    def test_accepted_as_fraction(self, token):
        g = parse_game(f"players 1\n0 {token}\n")
        assert g.values[1] == Fraction(token)

    @pytest.mark.parametrize(
        "token", ["nan", "inf", "1/0", "3/-4", "0x1", "3/", "/4", "1e300000", "1e-300000"]
    )
    def test_rejected_with_line(self, token):
        with pytest.raises(ParseError) as exc:
            parse_game(f"players 2\n# values\n0,1 {token}\n", source="v.game")
        assert exc.value.line == 3
        assert str(exc.value).startswith("v.game:3: ")


HEADER_PARSERS = [
    (parse_game, "players 2", "0,1 1"),
    (parse_owner_list, "players 2", "0,1"),
    (parse_approval_profile, "parties 2 A B", "1 0,1"),
    (parse_regional, "parties 2 A B", "region 1 5 5"),
]


class TestHeader:
    @pytest.mark.parametrize("parse, header, body", HEADER_PARSERS)
    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", 1, "empty"),
            ("# only comments\n\n", 1, "empty"),
            ("# c\nwrong {count}\n{body}\n", 2, "expected '"),
            ("# c\n{keyword}\n{body}\n", 2, "missing count"),
            ("{keyword} x {names}\n{body}\n", 1, "bad count 'x'"),
            ("\n\n{keyword} 0 {names}\n{body}\n", 3, "count must be >= 1, got 0"),
            ("{keyword} -2 {names}\n{body}\n", 1, "count must be >= 1, got -2"),
            ("# c\n{keyword} {count} {names} extra\n{body}\n", 2, "names, got"),
        ],
    )
    def test_header_errors(self, parse, header, body, text, line, message):
        keyword, count, *names = header.split()
        text = text.format(keyword=keyword, count=count, names=" ".join(names), body=body)
        with pytest.raises(ParseError) as exc:
            parse(text, source="h")
        assert exc.value.line == line
        assert message in str(exc.value)

    @pytest.mark.parametrize("parse, header, body", HEADER_PARSERS)
    def test_good_header(self, parse, header, body):
        parse(f"# c\n{header}\n{body}\n")

    def test_player_cap_before_lines(self):
        with pytest.raises(TooManyPlayers):
            parse_game("players 21\n0,1 1\n0,1 x\n")
        with pytest.raises(TooManyPlayers):
            parse_game("players 21\nnot a line\n")
