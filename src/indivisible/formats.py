"""Text formats for games, owner lists, ballots, and regional vote tables.

All formats are line based, use ``#`` for comment lines, and round-trip
bit-exactly: formatting a parsed value and reparsing it reproduces the
same in-memory object.  Player indices are 0-based and written ascending.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidRange, ParseError
from .games import (
    MAX_TABLE_PLAYERS,
    Game,
    _as_fraction,
    _check_player_count,
    _game_from_slots,
    members,
)
from .elections import ApprovalProfile, Region, RegionalVotes
from .matching import OwnerList


def format_value(value: Fraction) -> str:
    """Canonical rendering: integers bare, other rationals as num/den."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _content_lines(text: str):
    """(line number, stripped line) for each line that is neither blank nor a
    comment.  Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def _parse_fraction(token: str, source: str, lineno: int) -> Fraction:
    try:
        return _as_fraction(token)
    except InvalidRange:
        raise ParseError(source, lineno, f"bad rational value {token!r}") from None


def _parse_ratio(token: str, source: str, lineno: int) -> tuple[int, int]:
    """The rational ``token`` as (numerator, positive denominator), not
    necessarily in lowest terms.  ASCII ``[+-]digits[/digits]`` is split
    here; every other token goes to ``Fraction``, which words the error."""
    top, slash, bottom = token.partition("/")
    if token.isascii() and "_" not in token and (not slash or bottom.isdigit()):
        try:
            num, den = int(top), int(bottom) if slash else 1
        except ValueError:  # not [+-]digits, or beyond Python's cap on int digit strings
            den = 0
        if den:
            return num, den
    return _parse_fraction(token, source, lineno).as_integer_ratio()


def _parse_indices(token: str, n: int, source: str, lineno: int, known: dict[str, int]) -> int:
    """The coalition named by ``token``, a comma-separated list of strictly
    ascending player indices in ``0 .. n - 1``.

    ``known`` maps each index string already read from the same file to its
    index; pass one dict for all of a file's lines.  A known string costs one
    lookup; any other is read by ``int`` and checked, and is added to
    ``known`` only once it passed.
    """
    mask = 0
    prev = -1
    for part in token.split(","):
        idx = known.get(part, -1)
        if idx <= prev:  # a string not read yet, or not above every earlier index
            try:
                idx = int(part)
            except ValueError:
                raise ParseError(source, lineno, f"bad player index {part!r}") from None
            if idx <= prev:  # a negative index included, as prev >= -1
                raise ParseError(
                    source, lineno, f"player indices must be strictly ascending, got {token!r}"
                )
            if idx >= n:
                raise ParseError(source, lineno, f"player index {idx} outside 0..{n - 1}")
            known[part] = idx
        prev = idx
        mask |= 1 << idx
    return mask


def _read_header(text: str, keyword: str, what: str, source: str):
    """The content lines after a ``what`` file's ``<keyword> <count> ...`` header,
    plus the header's line number, its count (at least 1) and the party names, if any."""
    lines = _content_lines(text)
    lineno, header = next(lines, (1, None))
    if header is None:
        raise ParseError(source, lineno, f"empty {what} file")
    parts = header.split()
    if parts[0] != keyword:
        raise ParseError(source, lineno, f"expected '{keyword} ...', got {header!r}")
    if len(parts) < 2:
        raise ParseError(source, lineno, f"missing count after '{keyword}'")
    try:
        count = int(parts[1])
    except ValueError:
        raise ParseError(source, lineno, f"bad count {parts[1]!r}") from None
    if count < 1:
        raise ParseError(source, lineno, f"count must be >= 1, got {count}")
    names = parts[2:]
    wanted = count if keyword == "parties" else 0
    if len(names) != wanted:
        raise ParseError(source, lineno, f"expected {wanted} names, got {len(names)}")
    return lines, lineno, count, names


_RECENT = 1024  # entries each of parse_game's recent-line maps holds before it is cleared


def parse_game(text: str, source: str = "<game>") -> Game:
    """Parse the game format: a ``players <n>`` header, then one
    ``<i1>,...,<ik> <value>`` line per nonzero coalition.

    Two maps hold what recent lines read: ``recent`` maps a line's index
    list to its mask, and ``ratios`` a value token to its (num, den).  A line
    ``<head>,<tail>`` whose ``head`` an earlier line validated and whose
    ``tail`` is a recent line's index list, all above ``head``, is read as
    ``head``'s bit plus that mask; a one-index line with a known ``head`` is
    that bit alone.  Every other line is read by ``_parse_indices`` and
    ``_parse_ratio``, so each game and each error is the same as without the
    maps.  Each map is cleared when it reaches ``_RECENT`` entries, so their
    memory does not grow with ``n``.  In ascending-mask order, as
    ``format_game`` writes, a mask's tail comes ``2**i`` masks earlier, ``i``
    its lowest member, so all but about one line in two hundred take the map.
    """
    lines, _, n, _ = _read_header(text, "players", "game", source)
    _check_player_count(n, MAX_TABLE_PLAYERS)
    nums = [0] * (1 << n)
    dens = [0] * (1 << n)  # 0 marks a coalition not listed yet
    known: dict[str, int] = {}
    recent: dict[str, int] = {}
    ratios: dict[str, tuple[int, int]] = {}
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(source, lineno, f"expected '<players> <value>', got {line!r}")
        players, token = parts
        head, comma, tail = players.partition(",")
        idx = known.get(head, -1)
        rest = recent.get(tail, 0)  # 0 for a one-index line: no list is empty
        if idx >= 0 and (not comma or (1 << idx) < (rest & -rest)):
            mask = 1 << idx | rest
        else:
            mask = _parse_indices(players, n, source, lineno, known)
        if dens[mask]:
            raise ParseError(source, lineno, f"coalition {players} listed twice")
        if not mask & 1:  # a list holding player 0 is no line's tail
            if len(recent) >= _RECENT:
                recent.clear()
            recent[players] = mask
        ratio = ratios.get(token)
        if ratio is None:
            if len(ratios) >= _RECENT:
                ratios.clear()
            ratio = ratios[token] = _parse_ratio(token, source, lineno)
        nums[mask], dens[mask] = ratio
    return _game_from_slots(n, nums, dens)


def format_game(g: Game) -> str:
    lines = [f"players {g.n}"]
    for mask in range(1, 1 << g.n):
        if g.values[mask] != 0:
            indices = ",".join(str(i) for i in members(mask))
            lines.append(f"{indices} {format_value(g.values[mask])}")
    return "\n".join(lines) + "\n"


def parse_owner_list(text: str, source: str = "<owners>") -> OwnerList:
    """Parse the owner-list format: a ``players <n>`` header, then one
    comma-separated owner coalition per object."""
    lines, _, n, _ = _read_header(text, "players", "owner", source)
    owners = []
    known: dict[str, int] = {}
    for lineno, line in lines:
        if len(line.split()) != 1:
            raise ParseError(source, lineno, f"expected one owner coalition, got {line!r}")
        owners.append(_parse_indices(line, n, source, lineno, known))
    return OwnerList(n, tuple(owners))


def format_owner_list(ol: OwnerList) -> str:
    lines = [f"players {ol.n}"]
    for mask in ol.owners:
        lines.append(",".join(str(i) for i in members(mask)))
    return "\n".join(lines) + "\n"


def parse_approval_profile(text: str, source: str = "<ballots>") -> ApprovalProfile:
    """Parse the ballot format: ``parties <m> <name0> <name1> ...``, then one
    ``<count> <i1>,<i2>,...`` line per distinct approval set."""
    lines, _, m, names = _read_header(text, "parties", "ballot", source)
    ballots = []
    known: dict[str, int] = {}
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(source, lineno, f"expected '<count> <parties>', got {line!r}")
        try:
            mult = int(fields[0])
        except ValueError:
            raise ParseError(source, lineno, f"bad ballot count {fields[0]!r}") from None
        if mult < 1:
            raise ParseError(source, lineno, f"ballot count must be >= 1, got {mult}")
        ballots.append((_parse_indices(fields[1], m, source, lineno, known), mult))
    return ApprovalProfile(tuple(names), tuple(ballots))


def format_approval_profile(profile: ApprovalProfile) -> str:
    lines = ["parties " + str(len(profile.parties)) + " " + " ".join(profile.parties)]
    for mask, mult in profile.ballots:
        lines.append(f"{mult} " + ",".join(str(i) for i in members(mask)))
    return "\n".join(lines) + "\n"


def parse_regional(
    text: str, source: str = "<regional>"
) -> tuple[tuple[str, ...], RegionalVotes, tuple[tuple[int, ...], ...]]:
    """Parse the regional format: ``parties <m> <names...>``, then one
    ``region <seats> <v0> ... <vm-1> | <outsider totals...>`` line per
    region (the bar and outsider totals may be omitted)."""
    lines, lineno, m, names = _read_header(text, "parties", "regional", source)
    regions = []
    outsiders = []
    for lineno, line in lines:
        fields = line.split()
        if not fields or fields[0] != "region":
            raise ParseError(source, lineno, f"expected 'region ...', got {line!r}")
        body = fields[1:]
        bar = body.index("|") if "|" in body else len(body)
        vote_fields, out_fields = body[:bar], body[bar + 1 :]
        if len(vote_fields) != m + 1:
            raise ParseError(
                source, lineno, f"expected seats plus {m} vote totals, got {len(vote_fields)}"
            )
        try:
            numbers = [int(f) for f in vote_fields]
            outs = tuple(int(f) for f in out_fields)
        except ValueError:
            raise ParseError(source, lineno, "vote totals must be integers") from None
        regions.append(Region(numbers[0], tuple(numbers[1:])))
        outsiders.append(outs)
    if not regions:
        raise ParseError(source, lineno, "regional file lists no regions")
    return tuple(names), RegionalVotes(tuple(regions)), tuple(outsiders)


def format_regional(
    names: Sequence[str], rv: RegionalVotes, outsiders: Sequence[Sequence[int]]
) -> str:
    lines = ["parties " + str(len(names)) + " " + " ".join(names)]
    for region, outs in zip(rv.regions, outsiders):
        line = f"region {region.seats} " + " ".join(str(v) for v in region.votes)
        if outs:
            line += " | " + " ".join(str(v) for v in outs)
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_vector(token: str, source: str = "<vector>") -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals, e.g. ``1/2,1,0``."""
    return tuple(_parse_fraction(part, source, 1) for part in token.split(","))
