"""Command-line front end.

Every subcommand reads files or oracle commands given on the command line,
never the environment, and all randomness is controlled by an explicit
``--seed`` flag (default 0), so identical invocations produce byte-identical
output.  ``--format machine`` emits one JSON document per invocation with
the fields {command, players, values, total, trace}.

Exit codes: 0 success, 1 invalid input, 2 oracle or protocol failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import formats
from .elections import apportion_isv, coalition_game_from_regions, dhondt
from .errors import OracleFailure, SolverError
from .games import (
    Game,
    harsanyi_dividends,
    in_core,
    is_convex,
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


def _emit(out, fmt: str, command: str, players: int, values, total, trace=None, lines=None):
    """Write one result record; ``lines`` overrides the default human lines."""
    if fmt == "machine":
        doc = {
            "command": command,
            "players": players,
            "values": values,
            "total": total,
            "trace": trace,
        }
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return
    if lines is None:
        lines = [f"player {i} {v}" for i, v in enumerate(values)]
        lines.append(f"total {total}")
    for line in lines:
        out.write(line + "\n")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _load_game(path: str) -> Game:
    return formats.parse_game(_read(path), source=path)


def _cmd_shapley(args, out) -> None:
    g = _load_game(args.game)
    sv = shapley_exact(g)
    values = [_render(v) for v in sv]
    _emit(out, args.format, "shapley", g.n, values, _render(g.grand_value))


def _cmd_dividends(args, out) -> None:
    g = _load_game(args.game)
    dividends = harsanyi_dividends(g)
    nums = dividends.nums
    entries = [
        (",".join(str(i) for i in members(mask)), _render(dividends[mask]))
        for mask in range(1, 1 << g.n)
        if nums[mask] != 0
    ]
    total = _render(Fraction(sum(nums), dividends.den))
    lines = [f"coalition {ix} {val}" for ix, val in entries] + [f"total {total}"]
    _emit(out, args.format, "dividends", g.n, entries, total, lines=lines)


def _cmd_check(args, out) -> None:
    g = _load_game(args.game)
    checks = {
        "convex": is_convex(g),
        "positive": is_positive(g),
        "size-bounded": is_size_bounded(g),
    }
    if args.vector is not None:
        vector = formats.parse_vector(args.vector)
        checks["core"] = in_core(g, vector)
    lines = [f"{name}: {'yes' if ok else 'no'}" for name, ok in checks.items()]
    _emit(out, args.format, "check", g.n, {k: v for k, v in checks.items()}, None, lines=lines)


def _cmd_isv(args, out) -> None:
    g = _load_game(args.game)
    result = indivisible_shapley(g)
    values = [str(p) for p in result.payoffs]
    trace = [[kind, player, amount] for kind, player, amount in result.trace]
    _emit(out, args.format, "isv", g.n, values, str(sum(result.payoffs)), trace=trace)


def _cmd_matrix(args, out) -> None:
    g = _load_game(args.game)
    mat = shapley_matrix_exact(g)
    values = [[_render(v) for v in row] for row in mat]
    lines = [f"row {i} " + " ".join(row) for i, row in enumerate(values)]
    lines.append(f"total {_render(g.grand_value)}")
    _emit(out, args.format, "matrix", g.n, values, _render(g.grand_value), lines=lines)


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        samples=args.k,
        seed=args.seed,
        exhaustive=args.exhaustive,
    )


def _cmd_sample(args, out) -> None:
    with SubprocessOracle(args.oracle, args.n) as oracle:
        cfg = _sampler_config(args)
        if args.matrix:
            mat = sample_shapley_matrix(oracle, cfg)
            total = _render(sum(v for row in mat for v in row))
            values = [[_render(v) for v in row] for row in mat]
            lines = [f"row {i} " + " ".join(row) for i, row in enumerate(values)]
            lines.append(f"total {total}")
            _emit(out, args.format, "sample", args.n, values, total, lines=lines)
        else:
            sv = sample_shapley(oracle, cfg)
            values = [_render(v) for v in sv]
            total = _render(sum(sv))
            _emit(out, args.format, "sample", args.n, values, total)


def _cmd_large(args, out) -> None:
    with SubprocessOracle(args.oracle, args.n) as oracle:
        grants = select_top_k(oracle, args.total, _sampler_config(args), args.alpha)
    values = [str(v) for v in grants]
    _emit(out, args.format, "large", args.n, values, str(sum(grants)))


def _cmd_allocate(args, out) -> None:
    ol = formats.parse_owner_list(_read(args.owners), source=args.owners)
    allocation = isv_allocation(ol)
    lines = [f"{j} -> {p}" for j, p in enumerate(allocation.assignment)]
    lines += [f"player {i} {c}" for i, c in enumerate(allocation.counts)]
    lines.append(f"total {sum(allocation.counts)}")
    _emit(
        out,
        args.format,
        "allocate",
        ol.n,
        [str(c) for c in allocation.counts],
        str(sum(allocation.counts)),
        trace=[[j, p] for j, p in enumerate(allocation.assignment)],
        lines=lines,
    )


def _cmd_apportion(args, out) -> None:
    profile = formats.parse_approval_profile(_read(args.ballots), source=args.ballots)
    seats = apportion_isv(profile, args.seats)
    values = [str(s) for s in seats]
    _emit(out, args.format, "apportion", len(profile.parties), values, str(sum(seats)))


def _cmd_dhondt(args, out) -> None:
    alloc = dhondt(args.votes, args.seats)
    values = [str(s) for s in alloc]
    _emit(out, args.format, "dhondt", len(alloc), values, str(sum(alloc)))


def _cmd_coalition(args, out) -> None:
    names, rv, outsiders = formats.parse_regional(_read(args.regional), source=args.regional)
    game = coalition_game_from_regions(rv, range(len(names)), outsiders)
    payoffs = indivisible_shapley(game).payoffs
    values = [str(p) for p in payoffs]
    _emit(out, args.format, "coalition", len(names), values, str(sum(payoffs)))


def _build_parser() -> _Parser:
    parser = _Parser(prog="indivisible", description=__doc__)
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shapley", help="exact Shapley value of a game file")
    p.add_argument("game")
    p.set_defaults(fn=_cmd_shapley)

    p = sub.add_parser("dividends", help="nonzero Harsanyi dividends of a game file")
    p.add_argument("game")
    p.set_defaults(fn=_cmd_dividends)

    p = sub.add_parser("check", help="structural predicates of a game file")
    p.add_argument("game")
    p.add_argument("--vector", help="payoff vector to test for core membership")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("isv", help="indivisible Shapley value of a game file")
    p.add_argument("game")
    p.set_defaults(fn=_cmd_isv)

    p = sub.add_parser("matrix", help="exact synergy matrix of a game file")
    p.add_argument("game")
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("sample", help="sampled Shapley value of an oracle command")
    p.add_argument("n", type=int, help="player count")
    p.add_argument("--oracle", required=True, help="oracle command line")
    p.add_argument("--k", type=int, default=10_000, help="number of sampled permutations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrix", action="store_true", help="estimate the synergy matrix")
    p.add_argument("--exhaustive", action="store_true", help="enumerate all permutations")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("large", help="grant units from a black-box game")
    p.add_argument("--oracle", required=True, help="oracle command line")
    p.add_argument("--n", type=int, required=True, help="player count")
    p.add_argument("--total", type=int, required=True, help="units to grant")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--k", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.fn(args, out)
    except OracleFailure as exc:
        err.write(f"oracle error: {exc}\n")
        return 2
    except (_CliError, SolverError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
