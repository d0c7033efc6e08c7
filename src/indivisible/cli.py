"""Command-line front end.

Every subcommand reads UTF-8 files or oracle commands given on the command
line, never the environment, and all randomness is controlled by an
explicit ``--seed`` flag (default 0), so identical invocations produce
byte-identical output.  Each result is written to stdout once, after it is
computed: as text lines, or with ``--format machine`` as one JSON document
with the fields {command, players, values, total, trace}.

Exit codes: 0 success, 1 invalid input or a stdout closed by its reader
(no message), 2 oracle or protocol failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from . import formats
from .elections import apportion_isv, coalition_game_from_regions, dhondt
from .errors import OracleFailure, SolverError
from .games import (
    _locally_convex,
    harsanyi_dividends,
    in_core,
    is_positive,
    is_size_bounded,
    members,
    shapley_exact,
    shapley_matrix_exact,
)
from .isv import indivisible_shapley
from .large import DEFAULT_ALPHA, select_top_k
from .matching import isv_allocation
from .sampling import SamplerConfig, SubprocessOracle, sample_shapley, sample_shapley_matrix


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise _CliError(message)


def _render(value) -> str:
    if isinstance(value, Fraction):
        return formats.format_value(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Result(NamedTuple):
    """What a subcommand found.  The human form is ``lines`` (by default one
    ``player`` line per value), then a ``total`` line unless ``total`` is None."""

    players: int
    values: object
    total: object
    trace: object = None
    lines: Iterable[str] | None = None


def _format(result: _Result, command: str, fmt: str) -> str:
    if fmt == "machine":
        doc = dict(zip(("players", "values", "total", "trace"), result), command=command)
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    lines = result.lines
    if lines is None:
        lines = [f"player {i} {v}" for i, v in enumerate(result.values)]
    if result.total is not None:
        lines = [*lines, f"total {result.total}"]
    return "".join(line + "\n" for line in lines)


def _read(path: str, parse):
    """The parsed contents of the UTF-8 file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    return parse(text, source=path)


def _rows(mat, total: str) -> _Result:
    """A matrix result, one ``row`` line per player."""
    values = [[_render(v) for v in row] for row in mat]
    lines = [f"row {i} " + " ".join(row) for i, row in enumerate(values)]
    return _Result(len(values), values, total, lines=lines)


def _cmd_shapley(args) -> _Result:
    g = _read(args.game, formats.parse_game)
    return _Result(g.n, [_render(v) for v in shapley_exact(g)], _render(g.grand_value))


def _cmd_dividends(args) -> _Result:
    g = _read(args.game, formats.parse_game)
    dividends = harsanyi_dividends(g)
    entries = [
        (",".join(str(i) for i in members(mask)), _render(dividends[mask]))
        for mask in range(1, 1 << g.n)
        if dividends.nums[mask] != 0
    ]
    total = _render(Fraction(sum(dividends.nums), dividends.den))
    return _Result(g.n, entries, total, lines=[f"coalition {ix} {v}" for ix, v in entries])


def _cmd_check(args) -> _Result:
    g = _read(args.game, formats.parse_game)
    positive = is_positive(g)
    checks = {
        # is_convex, reusing the dividend pass that decided "positive"
        "convex": positive or _locally_convex(g),
        "positive": positive,
        "size-bounded": is_size_bounded(g),
    }
    if args.vector is not None:
        checks["core"] = in_core(g, formats.parse_vector(args.vector))
    lines = [f"{name}: {'yes' if ok else 'no'}" for name, ok in checks.items()]
    return _Result(g.n, checks, None, lines=lines)


def _cmd_isv(args) -> _Result:
    g = _read(args.game, formats.parse_game)
    result = indivisible_shapley(g)
    trace = [[kind, player, amount] for kind, player, amount in result.trace]
    return _Result(g.n, [str(p) for p in result.payoffs], str(sum(result.payoffs)), trace)


def _cmd_matrix(args) -> _Result:
    g = _read(args.game, formats.parse_game)
    return _rows(shapley_matrix_exact(g), _render(g.grand_value))


def _cmd_sample(args) -> _Result:
    cfg = SamplerConfig(args.k, args.seed, args.exhaustive)
    with SubprocessOracle(args.oracle, args.n) as oracle:
        if args.matrix:
            mat = sample_shapley_matrix(oracle, cfg)
            return _rows(mat, _render(sum(v for row in mat for v in row)))
        sv = sample_shapley(oracle, cfg)
    return _Result(args.n, [_render(v) for v in sv], _render(sum(sv)))


def _cmd_large(args) -> _Result:
    with SubprocessOracle(args.oracle, args.n) as oracle:
        cfg = SamplerConfig(args.k, args.seed, args.exhaustive)
        grants = select_top_k(oracle, args.total, cfg, args.alpha)
    return _Result(args.n, [str(v) for v in grants], str(sum(grants)))


def _cmd_allocate(args) -> _Result:
    ol = _read(args.owners, formats.parse_owner_list)
    allocation = isv_allocation(ol)
    values = [str(c) for c in allocation.counts]
    trace = [[j, p] for j, p in enumerate(allocation.assignment)]
    # read only by the human form, so the machine document renders no lines
    lines = chain((f"{j} -> {p}" for j, p in trace), (f"player {i} {c}" for i, c in enumerate(values)))
    return _Result(ol.n, values, str(sum(allocation.counts)), trace, lines)


def _cmd_apportion(args) -> _Result:
    profile = _read(args.ballots, formats.parse_approval_profile)
    seats = apportion_isv(profile, args.seats)
    return _Result(len(profile.parties), [str(s) for s in seats], str(sum(seats)))


def _cmd_dhondt(args) -> _Result:
    alloc = dhondt(args.votes, args.seats)
    return _Result(len(alloc), [str(s) for s in alloc], str(sum(alloc)))


def _cmd_coalition(args) -> _Result:
    names, rv, outsiders = _read(args.regional, formats.parse_regional)
    game = coalition_game_from_regions(rv, range(len(names)), outsiders)
    payoffs = indivisible_shapley(game).payoffs
    return _Result(len(names), [str(p) for p in payoffs], str(sum(payoffs)))


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and reused after it."""
    parser = _Parser(prog="indivisible", description=__doc__)
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (
        ("shapley", _cmd_shapley, "exact Shapley value of a game file"),
        ("dividends", _cmd_dividends, "nonzero Harsanyi dividends of a game file"),
        ("check", _cmd_check, "structural predicates of a game file"),
        ("isv", _cmd_isv, "indivisible Shapley value of a game file"),
        ("matrix", _cmd_matrix, "exact synergy matrix of a game file"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("game")
        p.set_defaults(fn=fn)
    sub.choices["check"].add_argument("--vector", help="payoff vector to test for core membership")

    opts = _Parser(add_help=False)  # shared by the two oracle subcommands
    opts.add_argument("--oracle", required=True, help="oracle command line")
    opts.add_argument("--k", type=int, default=10_000, help="number of sampled permutations")
    opts.add_argument("--seed", type=int, default=0)
    opts.add_argument("--exhaustive", action="store_true", help="enumerate all permutations")

    p = sub.add_parser("sample", parents=[opts], help="sampled Shapley value of an oracle command")
    p.add_argument("n", type=int, help="player count")
    p.add_argument("--matrix", action="store_true", help="estimate the synergy matrix")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("large", parents=[opts], help="grant units from a black-box game")
    p.add_argument("--n", type=int, required=True, help="player count")
    p.add_argument("--total", type=int, required=True, help="units to grant")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.set_defaults(fn=_cmd_large)

    p = sub.add_parser("allocate", help="allocate objects per an owner-list file")
    p.add_argument("owners")
    p.set_defaults(fn=_cmd_allocate)

    p = sub.add_parser("apportion", help="seat apportionment from a ballot file")
    p.add_argument("ballots")
    p.add_argument("--seats", type=int, required=True)
    p.set_defaults(fn=_cmd_apportion)

    p = sub.add_parser("dhondt", help="D'Hondt seat allocation from vote totals")
    p.add_argument("votes", type=int, nargs="+")
    p.add_argument("--seats", type=int, required=True)
    p.set_defaults(fn=_cmd_dhondt)

    p = sub.add_parser("coalition", help="seat split for a coalition of parties")
    p.add_argument("regional")
    p.set_defaults(fn=_cmd_coalition)

    return parser


def main(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        result = args.fn(args)
    except OracleFailure as exc:
        err.write(f"oracle error: {exc}\n")
        return 2
    except (_CliError, SolverError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        err.write("error: out of memory\n")
        return 1
    out.write(_format(result, args.command, args.format))
    return 0


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away; silence the interpreter's own final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
