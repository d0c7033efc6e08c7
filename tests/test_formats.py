import random
from fractions import Fraction

import pytest

from indivisible import ApprovalProfile, Region, RegionalVotes, make_game
from indivisible import formats
from indivisible.errors import ParseError, SolverError, TooManyPlayers
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

from oracles import (
    floor_half_game,
    random_game,
    random_owner_list,
    reference_parse_game,
    two_goods_game,
)

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

    @pytest.mark.parametrize(
        "text", ["parties 2 A B\n", "parties 2 A B\n# no region follows\n\n"]
    )
    def test_no_region_line(self, text):
        with pytest.raises(ParseError) as exc:
            parse_regional(text, source="r")
        assert str(exc.value) == "r:1: regional file lists no regions"


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
        "token",
        [
            "3", "+3", "-3/4", "1_0", "\u0663", "3.5", "1e2", "-0", "1e4300",
            "007", "00/4", "+3/4", "-0/5", "2/4",
            pytest.param("9" * 4300, id="4300-digit integer"),
        ],
    )
    def test_accepted_as_fraction(self, token):
        g = parse_game(f"players 1\n0 {token}\n")
        assert g.values[1] == Fraction(token)

    @pytest.mark.parametrize(
        "token",
        [
            "nan", "inf", "1/0", "3/-4", "0x1", "3/", "/4", "1e300000", "1e-300000",
            # Python caps int digit strings at 4300 digits, and Fraction with it
            pytest.param("1" * 4301, id="4301-digit integer"),
            pytest.param("1/" + "1" * 4301, id="4301-digit denominator"),
        ],
    )
    def test_rejected_with_line(self, token):
        with pytest.raises(ParseError) as exc:
            parse_game(f"players 2\n# values\n0,1 {token}\n", source="v.game")
        assert exc.value.line == 3
        assert str(exc.value) == f"v.game:3: bad rational value {token!r}"


HEADER_PARSERS = [
    (parse_game, "players 2", "0,1 1"),
    (parse_owner_list, "players 2", "0,1"),
    (parse_approval_profile, "parties 2 A B", "1 0,1"),
    (parse_regional, "parties 2 A B", "region 1 5 5"),
]


def _odd_index(rng: random.Random, i: int) -> str:
    """Player index ``i`` as any string ``int`` reads as ``i``."""
    return rng.choice([str(i), str(i), f"0{i}", f"+{i}", chr(0x660 + i)])


def _odd_value(rng: random.Random) -> str:
    """A value token in one of the spellings ``Fraction`` accepts."""
    k = rng.randint(-40, 40)
    den = rng.randint(1, 12)
    return rng.choice(
        [
            str(k),
            f"{k}/{den}",
            f"{2 * k}/{2 * den}",  # not in lowest terms
            f"+{abs(k)}/{den}",
            "-0",
            "-0/5",
            f"00{abs(k)}",
            f"00/{den}",
            f"{k}.{rng.randint(0, 99)}",
            f"{k}e{rng.randint(-3, 3)}",
            f"{abs(k)}_0",
            "\u0663",
            f"\u0663/{den}",
        ]
    )


def _odd_game_text(rng: random.Random, n: int) -> str:
    """A game file listing a random set of coalitions in random order,
    with comments, blank lines and odd but valid indices and values."""
    masks = rng.sample(range(1, 1 << n), rng.randint(0, (1 << n) - 1))
    lines = ["# an odd game", f"players {n}"]
    for mask in masks:
        indices = ",".join(_odd_index(rng, i) for i in range(n) if mask >> i & 1)
        lines.append(f"{indices} {_odd_value(rng)}")
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  # note", "\t"]))
    return rng.choice(["\n", "\r\n"]).join(lines) + "\n"


def _outcome(parse, text):
    """The game ``parse`` reads from ``text``, or its error's type, line and message."""
    try:
        return parse(text, source="m.game")
    except SolverError as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)


class TestReferenceParser:
    """``parse_game`` reads every file as the line-by-line ``Fraction``
    reference does: an equal game, or the same error on the same line."""

    def test_odd_spellings_agree(self):
        rng = random.Random(1021)
        for _ in range(200):
            text = _odd_game_text(rng, rng.randint(1, 5))
            expected = reference_parse_game(text)
            assert parse_game(text) == expected
            assert parse_game(format_game(expected)) == expected

    def test_single_character_edits_agree(self):
        rng = random.Random(1022)
        alphabet = [chr(c) for c in range(256)] + ["\u0663", "\u2028", "/", ",", "_", "-", "0"]
        errors = 0
        for _ in range(2000):
            text = _odd_game_text(rng, rng.randint(1, 4))
            at = rng.randrange(len(text))
            edit = rng.choice(["replace", "insert", "delete"])
            tail = text[at:] if edit == "insert" else text[at + 1 :]
            mutated = text[:at] + ("" if edit == "delete" else rng.choice(alphabet)) + tail
            expected = _outcome(reference_parse_game, mutated)
            assert _outcome(parse_game, mutated) == expected, repr(mutated)
            errors += isinstance(expected, tuple)
        assert 200 < errors < 1800  # the edits reach both outcomes

    def test_single_character_edits_of_ascending_files_agree(self):
        """Files in ascending-mask order, as ``format_game`` writes them, are
        the ones whose lines are read from a recent line's tail."""
        rng = random.Random(1024)
        alphabet = [",", "0", "1", "2", "9", " ", "\n", "-", "/", "+", "x", "#"]
        errors = 0
        for _ in range(600):
            g = random_game(rng, rng.randint(1, 10), rng.choice([1, 4, 12]))
            text = format_game(g)
            assert parse_game(text) == g
            at = rng.randrange(len(text))
            edit = rng.choice(["replace", "insert", "delete"])
            tail = text[at:] if edit == "insert" else text[at + 1 :]
            mutated = text[:at] + ("" if edit == "delete" else rng.choice(alphabet)) + tail
            expected = _outcome(reference_parse_game, mutated)
            assert _outcome(parse_game, mutated) == expected, (at, edit, mutated[at - 20 : at + 20])
            errors += isinstance(expected, tuple)
        assert 60 < errors < 540  # the edits reach both outcomes


class TestRecentLines:
    """A line read from a recent line's tail is checked as strictly as any
    other, and almost every line of an ascending file is read that way."""

    @pytest.mark.parametrize("token", ["1,1,2", "2,1,2"])
    def test_head_not_below_a_recent_tail(self, token):
        text = f"players 3\n1,2 1\n{token} 1\n"
        with pytest.raises(ParseError) as exc:
            parse_game(text, source="r")
        assert str(exc.value) == f"r:3: player indices must be strictly ascending, got {token!r}"

    @pytest.mark.parametrize("line", ["0,1,2 5", "0,01,2 5", "00,1,2 5", "+0,1,02 5"])
    def test_head_below_a_recent_tail(self, line):
        text = f"players 3\n0 1\n1,2 1\n{line}\n"
        assert parse_game(text).values[0b111] == 5
        assert parse_game(text) == reference_parse_game(text)

    @pytest.mark.parametrize("line", ["2 5", "02 5", "+2 5", "\u0662 5", "1 5", "3 5", "x 5", "-0 5"])
    def test_one_index_line(self, line):
        text = f"players 3\n0,2 1\n{line}\n"  # "0" and "2" are known, "1" is not
        assert _outcome(parse_game, text) == _outcome(reference_parse_game, text)

    def test_repeated_value_token(self):
        text = "players 3\n0 3/6\n1 3/6\n2 -0\n0,1 -0\n0,2 2/4\n1,2 x\n"
        assert _outcome(parse_game, text) == ("ParseError", 7, "m.game:7: bad rational value 'x'")
        g = parse_game(text.replace(" x", " 3/6"))
        assert g == reference_parse_game(text.replace(" x", " 3/6"))
        assert [g.values[m] for m in (1, 2, 4, 3, 5, 6)] == [F(1, 2), F(1, 2), 0, 0, F(1, 2), F(1, 2)]

    def test_index_lists_almost_all_read_from_a_recent_tail(self, monkeypatch):
        # a dense 16-player table, its values spread over more tokens than a map holds
        n = 16
        g = make_game(n, [(m, F(1 + m % 1999, 1 + m % 5)) for m in range(1, 1 << n)])
        text = format_game(g)
        calls = 0
        read = formats._parse_indices

        def counting(*args):
            nonlocal calls
            calls += 1
            return read(*args)

        monkeypatch.setattr(formats, "_parse_indices", counting)
        assert parse_game(text) == g
        assert 0 < calls <= 0.02 * ((1 << n) - 1)


class TestIndexLists:
    """Index lists whose strings earlier lines already read are checked as
    strictly as new ones, in every format that holds them."""

    FORMATS = [
        (parse_game, "players 3", "{} 1", lambda g: tuple(m for m in range(8) if g.values[m])),
        (parse_owner_list, "players 3", "{}", lambda ol: ol.owners),
        (
            parse_approval_profile,
            "parties 3 A B C",
            "1 {}",
            lambda p: tuple(m for m, _ in p.ballots),
        ),
    ]

    @pytest.mark.parametrize("parse, header, line, masks", FORMATS)
    @pytest.mark.parametrize(
        "token, message",
        [
            ("2,1", "player indices must be strictly ascending, got '2,1'"),
            ("1,1", "player indices must be strictly ascending, got '1,1'"),
            ("0,2,1", "player indices must be strictly ascending, got '0,2,1'"),
            ("1,3", "player index 3 outside 0..2"),
            ("1,x", "bad player index 'x'"),
        ],
    )
    def test_bad_list_of_known_indices(self, parse, header, line, masks, token, message):
        text = "\n".join([header, line.format("0,1,2"), line.format(token), ""])
        with pytest.raises(ParseError) as exc:
            parse(text, source="i")
        assert str(exc.value) == f"i:3: {message}"

    @pytest.mark.parametrize("parse, header, line, masks", FORMATS)
    def test_known_and_new_spellings(self, parse, header, line, masks):
        text = "\n".join([header, line.format("0,2"), line.format("+0,1,02"), ""])
        assert masks(parse(text)) == (0b101, 0b111)


class TestLineEnds:
    """Lines end only at \\n, \\r\\n and \\r, so error lines match an editor's."""

    @pytest.mark.parametrize("parse, header, body", HEADER_PARSERS)
    @pytest.mark.parametrize(
        "char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_other_breaks_stay_inside_the_line(self, parse, header, body, char):
        bad = f"0{char}1 1 1"
        text = f"{header}\n# a{char}b\n{body}\n{bad}\n"
        with pytest.raises(ParseError) as exc:
            parse(text, source="e")
        assert exc.value.line == 4
        assert str(exc.value).startswith("e:4: ")
        assert str(exc.value).endswith(f"got {bad!r}")

    @pytest.mark.parametrize("parse, header, body", HEADER_PARSERS)
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_endings(self, parse, header, body, end):
        text = end.join([header, "# a", body, "0 1 1 1", ""])
        with pytest.raises(ParseError) as exc:
            parse(text, source="e")
        assert exc.value.line == 4
        assert str(exc.value).endswith("got '0 1 1 1'")

    def test_value_error_line(self):
        with pytest.raises(ParseError) as exc:
            parse_game("players 2\n0 1\x1c\n1 x\n", "f")
        assert str(exc.value) == "f:3: bad rational value 'x'"


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
