"""Inputs, commands and independent checks of the three workloads.

``generate`` turns a workload seed into input files plus the data they
were made from; ``commands`` lists the CLI invocations of one round, each
with a check and a deliberately wrong variant of its output that the
check must reject.  Checks never call the library's solvers: they compare
against closed forms, tables and a D'Hondt built here, or against
properties the method guarantees (Efficiency, floor/ceiling quotas).

The 200 x 5000 owner list of ``objects`` is the one input that does not
depend on the seed.  ``allocate`` raises ``RecursionError`` on it every
time (``MatchingGraph._kuhn`` recurses once per step of an augmenting
path, and the paths are thousands of steps long), so it is kept fixed to
fail the same way in every run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("tables", "oracle", "objects")

# tables: exact path
GAME_PLAYERS = 13
GAME_DIVIDENDS = 60  # nonzero dividends besides the grand coalition's
GAME_DEN = 12  # every dividend is a multiple of 1/GAME_DEN
BALLOT_PARTIES = 13
BALLOT_SETS = 300
APPORTION_SEATS = 150
# Inputs are redrawn until every Shapley value is fractional and this many
# units are left after the floors, so every seed asks `isv`/`apportion`
# for the same number of reductions.
GRANTS = 6
REGION_PARTIES = 9
REGIONS = 20
OUTSIDERS = 3

# oracle: black-box path; the same closed-form game family at three sizes
SAMPLE_PLAYERS, SAMPLE_K = 24, 2000
MATRIX_PLAYERS, MATRIX_K = 16, 1000
LARGE_PLAYERS, LARGE_K = 12, 3000
TOP_PLAYERS = 3  # heavy players; `large --total TOP_PLAYERS` must pick exactly them
HOEFFDING_DELTA = 1e-6  # chance that a correct estimator fails a check, per command

# objects: matching and D'Hondt
OWNER_PLAYERS = 200
OWNER_OBJECTS = 1000
LARGE_OBJECTS = 5000
DHONDT_PARTIES, DHONDT_SEATS = 50, 5000


@dataclass
class Inputs:
    files: dict[str, str]  # file name -> contents, written during set-up
    data: dict


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]  # machine document -> problems found
    mutate: Callable[[dict], dict]  # a wrong document the check must reject


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"perfbench/{workload}/{part}/{seed}")


def _mask(players) -> int:
    out = 0
    for p in players:
        out |= 1 << p
    return out


def _members(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _copy(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


# ---------------------------------------------------------------- generation


def generate(workload: str, seed: int) -> Inputs:
    return {"tables": _gen_tables, "oracle": _gen_oracle, "objects": _gen_objects}[workload](seed)


def _gen_tables(seed: int) -> Inputs:
    rng = _rng("tables", seed, "game")
    n = GAME_PLAYERS
    full = (1 << n) - 1
    while True:
        div: dict[int, int] = {}  # mask -> dividend numerator over GAME_DEN
        while len(div) < GAME_DIVIDENDS:
            mask = _mask(rng.sample(range(n), rng.randint(1, 4)))
            div.setdefault(mask, rng.randint(1, 40))
        div[full] = GAME_DEN - sum(div.values()) % GAME_DEN  # makes v(N) whole
        if _grants(dividend_shapley(div, GAME_DEN, n)) == GRANTS:
            break
    # positive dividends give a convex game; the zeta transform gives its table
    table = [0] * (1 << n)
    for mask, d in div.items():
        table[mask] = d
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                table[mask] += table[mask ^ bit]
    game_lines = [f"players {n}"]
    for mask in range(1, 1 << n):
        if table[mask]:
            game_lines.append(
                ",".join(map(str, _members(mask))) + " " + _frac(Fraction(table[mask], GAME_DEN))
            )

    rng = _rng("tables", seed, "ballots")
    m = BALLOT_PARTIES
    while True:
        ballots: dict[int, int] = {}  # approval set -> voters
        while len(ballots) < BALLOT_SETS:
            ballots.setdefault(_mask(rng.sample(range(m), rng.randint(1, 3))), rng.randint(1, 50))
        if _grants(approval_shapley(ballots)) == GRANTS:
            break
    names = [f"P{i}" for i in range(m)]
    ballot_lines = [f"parties {m} " + " ".join(names)]
    ballot_lines += [f"{c} " + ",".join(map(str, _members(s))) for s, c in ballots.items()]

    rng = _rng("tables", seed, "regions")
    r = REGION_PARTIES
    regions = []
    for _ in range(REGIONS):
        seats = rng.randint(3, 12)
        votes = [rng.randint(0, 5000) for _ in range(r)]
        outs = [rng.randint(1000, 30000) for _ in range(OUTSIDERS)]
        regions.append((seats, votes, outs))
    region_lines = [f"parties {r} " + " ".join(names[:r])]
    for seats, votes, outs in regions:
        region_lines.append(
            f"region {seats} " + " ".join(map(str, votes)) + " | " + " ".join(map(str, outs))
        )

    return Inputs(
        files={
            "game.txt": "\n".join(game_lines) + "\n",
            "ballots.txt": "\n".join(ballot_lines) + "\n",
            "regions.txt": "\n".join(region_lines) + "\n",
        },
        data={"n": n, "div": div, "table": table, "ballots": ballots, "regions": regions},
    )


def _pair_game(rng: random.Random, n: int) -> dict:
    """Additive weights plus sparse pairwise synergies, with TOP_PLAYERS
    heavy players whose Shapley values clear every other player's."""
    top = set(rng.sample(range(n), TOP_PLAYERS))
    weights = [rng.randint(60, 70) if i in top else rng.randint(1, 10) for i in range(n)]
    synergy = [
        [i, j, rng.randint(1, 5)]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    return {"weights": weights, "synergy": synergy}


def _gen_oracle(seed: int) -> Inputs:
    games = {
        "sample": _pair_game(_rng("oracle", seed, "sample"), SAMPLE_PLAYERS),
        "matrix": _pair_game(_rng("oracle", seed, "matrix"), MATRIX_PLAYERS),
        "large": _pair_game(_rng("oracle", seed, "large"), LARGE_PLAYERS),
    }
    files = {f"{name}.json": json.dumps(g) + "\n" for name, g in games.items()}
    return Inputs(files=files, data={"games": games, "seed": seed})


def _owner_list(rng: random.Random, n: int, objects: int) -> list[int]:
    return [_mask(rng.sample(range(n), rng.randint(1, 3))) for _ in range(objects)]


def _owner_text(n: int, owners: list[int]) -> str:
    return f"players {n}\n" + "".join(",".join(map(str, _members(o))) + "\n" for o in owners)


def _gen_objects(seed: int) -> Inputs:
    owners = _owner_list(_rng("objects", seed, "owners"), OWNER_PLAYERS, OWNER_OBJECTS)
    # fixed on purpose: see the module docstring
    large = _owner_list(random.Random("perfbench/objects/owners-large"), OWNER_PLAYERS, LARGE_OBJECTS)
    rng = _rng("objects", seed, "votes")
    votes = [rng.randint(1000, 1_000_000) for _ in range(DHONDT_PARTIES)]
    return Inputs(
        files={
            "owners.txt": _owner_text(OWNER_PLAYERS, owners),
            "owners-large.txt": _owner_text(OWNER_PLAYERS, large),
        },
        data={"owners": owners, "owners_large": large, "votes": votes},
    )


# ---------------------------------------------------------------- references


def dhondt_reference(votes: list[int], seats: int) -> list[int]:
    """Highest averages by integer cross-multiplication; quotient ties go to
    the larger vote total, then to the lower index (the library's rule)."""
    alloc = [0] * len(votes)
    for _ in range(seats):
        best = 0
        for i in range(1, len(votes)):
            lhs = votes[i] * (alloc[best] + 1)
            rhs = votes[best] * (alloc[i] + 1)
            if lhs > rhs or (lhs == rhs and votes[i] > votes[best]):
                best = i
        alloc[best] += 1
    return alloc


def highest_averages_problems(votes: list[int], alloc: list[int]) -> list[str]:
    """Every seat won must beat every next divisor: v_b/s_b >= v_a/(s_a+1)."""
    for b, sb in enumerate(alloc):
        if sb == 0:
            continue
        for a, sa in enumerate(alloc):
            if a != b and votes[b] * (sa + 1) < votes[a] * sb:
                return [f"party {b} holds a seat that party {a} outbids"]
    return []


def _weighted_marginals(values: list[int], n: int) -> list[Fraction]:
    """Exact Shapley value as an integer weighted-marginal sum over n!."""
    fact = [math.factorial(k) for k in range(n + 1)]
    phi = []
    for i in range(n):
        bit = 1 << i
        acc = 0
        for s in range(1 << n):
            if not s & bit:
                size = s.bit_count()
                acc += fact[size] * fact[n - 1 - size] * (values[s | bit] - values[s])
        phi.append(Fraction(acc, fact[n]))
    return phi


def dividend_shapley(div: dict[int, int], den: int, n: int) -> list[Fraction]:
    """Shapley value of a game given by dividends num/den: sum(d_S / |S|)."""
    phi = [Fraction(0)] * n
    for mask, d in div.items():
        ms = _members(mask)
        for i in ms:
            phi[i] += Fraction(d, den * len(ms))
    return phi


def approval_shapley(ballots: dict[int, int]) -> list[Fraction]:
    """Each ballot's seat share splits equally among the parties it approves."""
    voters = sum(ballots.values())
    phi = [Fraction(0)] * BALLOT_PARTIES
    for mask, mult in ballots.items():
        ms = _members(mask)
        for i in ms:
            phi[i] += Fraction(APPORTION_SEATS * mult, voters * len(ms))
    return phi


def _grants(phi: list[Fraction]) -> int:
    """Units left after the floors; -1 if some value is already whole."""
    if any(p.denominator == 1 for p in phi):
        return -1
    return int(sum(phi) - sum(math.floor(p) for p in phi))


def pair_game_shapley(game: dict) -> list[Fraction]:
    phi = [Fraction(w) for w in game["weights"]]
    for i, j, s in game["synergy"]:
        phi[i] += Fraction(s, 2)
        phi[j] += Fraction(s, 2)
    return phi


# ---------------------------------------------------------------- checks


def _quota_problems(doc: dict, phi: list[Fraction], grand: int) -> list[str]:
    values = [int(v) for v in doc["values"]]
    problems = []
    if len(values) != len(phi):
        return [f"{len(values)} payoffs for {len(phi)} players"]
    if sum(values) != grand or doc["total"] != str(grand):
        problems.append(f"payoffs sum to {sum(values)}, not v(N) = {grand}")
    for i, (x, s) in enumerate(zip(values, phi)):
        if not math.floor(s) <= x <= math.ceil(s):
            problems.append(f"player {i} gets {x}, outside the quota of {s}")
    return problems


def _bump_first(doc: dict) -> dict:
    wrong = _copy(doc)
    wrong["values"][0] = str(int(wrong["values"][0]) + 1)
    return wrong


def _tables_commands(data: dict, paths: dict[str, str]) -> list[Command]:
    n, div, table = data["n"], data["div"], data["table"]
    full = (1 << n) - 1
    grand = Fraction(table[full], GAME_DEN)
    dividends = {m: Fraction(d, GAME_DEN) for m, d in div.items()}
    phi = dividend_shapley(div, GAME_DEN, n)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for mask, d in dividends.items():
        ms = _members(mask)
        for i in ms:
            for j in ms:
                mat[i][j] += d / len(ms) ** 2
    size_bounded = all(table[m] < GAME_DEN * m.bit_count() for m in range(1, 1 << n))
    game = paths["game.txt"]

    def shapley_check(doc):
        got = [Fraction(v) for v in doc["values"]]
        problems = [] if got == phi else ["values differ from sum(d_S / |S|)"]
        if Fraction(doc["total"]) != grand:
            problems.append(f"total {doc['total']} is not v(N) = {grand}")
        return problems

    def shapley_mutate(doc):
        wrong = _copy(doc)
        wrong["values"][0] = _frac(Fraction(wrong["values"][0]) + 1)
        return wrong

    expected_div = {",".join(map(str, _members(m))): d for m, d in dividends.items()}

    def dividends_check(doc):
        got = {k: Fraction(v) for k, v in doc["values"]}
        problems = [] if got == expected_div else ["dividends differ from the generating ones"]
        if Fraction(doc["total"]) != grand:
            problems.append(f"total {doc['total']} is not v(N) = {grand}")
        return problems

    def dividends_mutate(doc):
        wrong = _copy(doc)
        wrong["values"][0][1] = _frac(Fraction(wrong["values"][0][1]) + 1)
        return wrong

    def matrix_check(doc):
        got = [[Fraction(v) for v in row] for row in doc["values"]]
        return [] if got == mat else ["matrix differs from sum(d_S / |S|^2)"]

    def matrix_mutate(doc):
        wrong = _copy(doc)
        wrong["values"][0][1] = _frac(Fraction(wrong["values"][0][1]) + 1)
        return wrong

    expected_checks = {"convex": True, "positive": True, "size-bounded": size_bounded, "core": True}

    def check_check(doc):
        return [] if doc["values"] == expected_checks else [f"predicates {doc['values']}"]

    def check_mutate(doc):
        wrong = _copy(doc)
        wrong["values"]["core"] = False
        return wrong

    phi_app = approval_shapley(data["ballots"])

    # regional game: a table of merged-list seats from our own D'Hondt
    regions = data["regions"]
    r = REGION_PARTIES
    seats_of = [0] * (1 << r)
    for mask in range(1, 1 << r):
        ms = _members(mask)
        for seats, votes, outs in regions:
            seats_of[mask] += dhondt_reference([sum(votes[i] for i in ms), *outs], seats)[0]
    phi_reg = _weighted_marginals(seats_of, r)

    return [
        Command("shapley", ["shapley", game], shapley_check, shapley_mutate),
        Command("dividends", ["dividends", game], dividends_check, dividends_mutate),
        Command("matrix", ["matrix", game], matrix_check, matrix_mutate),
        Command(
            "check",
            ["check", game, "--vector", ",".join(_frac(x) for x in phi)],
            check_check,
            check_mutate,
        ),
        Command("isv", ["isv", game], lambda d: _quota_problems(d, phi, int(grand)), _bump_first),
        Command(
            "apportion",
            ["apportion", paths["ballots.txt"], "--seats", str(APPORTION_SEATS)],
            lambda d: _quota_problems(d, phi_app, APPORTION_SEATS),
            _bump_first,
        ),
        Command(
            "coalition",
            ["coalition", paths["regions.txt"]],
            lambda d: _quota_problems(d, phi_reg, seats_of[-1]),
            _bump_first,
        ),
    ]


def _hoeffding(width: float, k: int, tests: int) -> float:
    """Deviation a mean of k draws in a range of this width exceeds with
    probability at most HOEFFDING_DELTA / tests."""
    return width * math.sqrt(math.log(2 * tests / HOEFFDING_DELTA) / (2 * k))


def _oracle_commands(data: dict, paths: dict[str, str], oracle_cmd) -> list[Command]:
    seed = str(data["seed"])
    games = data["games"]

    g = games["sample"]
    n = len(g["weights"])
    phi = [float(x) for x in pair_game_shapley(g)]
    grand = sum(g["weights"]) + sum(s for _, _, s in g["synergy"])
    spread = [0] * n  # a player's marginal lies in [w_i, w_i + spread_i]
    for i, j, s in g["synergy"]:
        spread[i] += s
        spread[j] += s
    tol = [_hoeffding(w, SAMPLE_K, n) for w in spread]

    def sample_check(doc):
        est = [float(v) for v in doc["values"]]
        problems = [
            f"player {i} estimate {e} is {abs(e - p):.4g} from {p}, tolerance {t:.4g}"
            for i, (e, p, t) in enumerate(zip(est, phi, tol))
            if abs(e - p) > t
        ]
        if abs(sum(est) - grand) > 1e-9 * grand:
            problems.append(f"estimates sum to {sum(est)}, not v(N) = {grand}")
        return problems

    def sample_mutate(doc):
        wrong = _copy(doc)
        i = max(range(n), key=lambda p: tol[p])
        shift = 1.5 * tol[i]
        wrong["values"][i] = repr(float(wrong["values"][i]) + shift)
        j = (i + 1) % n  # keep the sum, so only the tolerance test can object
        wrong["values"][j] = repr(float(wrong["values"][j]) - shift)
        return wrong

    g = games["matrix"]
    m = len(g["weights"])
    syn = {(i, j): s for i, j, s in g["synergy"]}
    harmonic = sum(1 / t for t in range(2, m + 1))  # largest weight on a second difference
    pairs = m * (m - 1) // 2

    def matrix_check(doc):
        est = [[float(v) for v in row] for row in doc["values"]]
        problems = []
        for i in range(m):
            if est[i][i] != 0.0:
                problems.append(f"diagonal entry {i} is {est[i][i]}")
            for j in range(i + 1, m):
                if est[i][j] != est[j][i]:
                    problems.append(f"entries ({i},{j}) and ({j},{i}) differ")
                s = syn.get((i, j), 0)
                tol_ij = _hoeffding(s * harmonic, MATRIX_K, pairs)
                if abs(est[i][j] - s / 4) > tol_ij:
                    problems.append(f"entry ({i},{j}) is {est[i][j]}, not {s / 4} within {tol_ij:.4g}")
        return problems

    def matrix_mutate(doc):
        wrong = _copy(doc)
        (i, j), s = next(iter(syn.items()))
        shifted = repr(float(wrong["values"][i][j]) + 1.5 * _hoeffding(s * harmonic, MATRIX_K, pairs))
        wrong["values"][i][j] = wrong["values"][j][i] = shifted
        return wrong

    g = games["large"]
    phi_large = pair_game_shapley(g)
    top = sorted(range(LARGE_PLAYERS), key=lambda p: (-phi_large[p], p))[:TOP_PLAYERS]
    expected_grants = [1 if p in top else 0 for p in range(LARGE_PLAYERS)]

    def large_check(doc):
        grants = [int(v) for v in doc["values"]]
        problems = []
        if sum(grants) != TOP_PLAYERS:
            problems.append(f"grants sum to {sum(grants)}, not --total {TOP_PLAYERS}")
        if grants != expected_grants:
            problems.append(f"grants {grants} do not pick the top players {sorted(top)}")
        return problems

    def large_mutate(doc):
        wrong = _copy(doc)
        loser = expected_grants.index(0)
        wrong["values"][top[0]] = str(int(wrong["values"][top[0]]) - 1)
        wrong["values"][loser] = str(int(wrong["values"][loser]) + 1)
        return wrong

    return [
        Command(
            "sample",
            ["sample", str(SAMPLE_PLAYERS), "--oracle", oracle_cmd(paths["sample.json"]),
             "--k", str(SAMPLE_K), "--seed", seed],
            sample_check,
            sample_mutate,
        ),
        Command(
            "sample_matrix",
            ["sample", str(MATRIX_PLAYERS), "--matrix", "--oracle", oracle_cmd(paths["matrix.json"]),
             "--k", str(MATRIX_K), "--seed", seed],
            matrix_check,
            matrix_mutate,
        ),
        Command(
            "large",
            ["large", "--oracle", oracle_cmd(paths["large.json"]), "--n", str(LARGE_PLAYERS),
             "--total", str(TOP_PLAYERS), "--k", str(LARGE_K), "--seed", seed],
            large_check,
            large_mutate,
        ),
    ]


def _allocation_check(n: int, owners: list[int]):
    # quotas q_i = sum over owned objects of 1/|owners|, scaled by 6 = lcm(1, 2, 3)
    scaled = [0] * n
    for mask in owners:
        for p in _members(mask):
            scaled[p] += 6 // mask.bit_count()

    def check(doc):
        counts = [int(c) for c in doc["values"]]
        pairs = doc["trace"]
        if len(pairs) != len(owners) or [j for j, _ in pairs] != list(range(len(owners))):
            return ["assignment does not list every object once"]
        problems = [f"object {j} goes to non-owner {p}" for j, p in pairs if not owners[j] >> p & 1]
        tally = [0] * n
        for _, p in pairs:
            tally[p] += 1
        if counts != tally:
            problems.append("counts disagree with the assignment")
        if sum(counts) != len(owners) or doc["total"] != str(len(owners)):
            problems.append(f"counts sum to {sum(counts)}, not {len(owners)} objects")
        for p, (c, q) in enumerate(zip(counts, scaled)):
            if not q // 6 <= c <= -(-q // 6):
                problems.append(f"player {p} gets {c} objects, outside the quota {q}/6")
        return problems

    def mutate(doc):
        wrong = _copy(doc)
        owner = wrong["trace"][0][1]
        outsider = next(p for p in range(n) if not owners[0] >> p & 1)
        wrong["trace"][0][1] = outsider
        wrong["values"][owner] = str(int(wrong["values"][owner]) - 1)
        wrong["values"][outsider] = str(int(wrong["values"][outsider]) + 1)
        return wrong

    return check, mutate


def _objects_commands(data: dict, paths: dict[str, str]) -> list[Command]:
    votes = data["votes"]
    expected = dhondt_reference(votes, DHONDT_SEATS)

    def dhondt_check(doc):
        alloc = [int(v) for v in doc["values"]]
        problems = highest_averages_problems(votes, alloc)
        if sum(alloc) != DHONDT_SEATS:
            problems.append(f"seats sum to {sum(alloc)}, not {DHONDT_SEATS}")
        if alloc != expected:
            problems.append("allocation differs from the cross-multiplied D'Hondt")
        return problems

    def dhondt_mutate(doc):
        wrong = _copy(doc)
        alloc = [int(v) for v in wrong["values"]]
        rich = max(range(len(alloc)), key=lambda p: alloc[p])
        poor = min(range(len(alloc)), key=lambda p: votes[p])
        alloc[rich] -= 1
        alloc[poor] += 1
        wrong["values"] = [str(a) for a in alloc]
        return wrong

    return [
        Command("allocate", ["allocate", paths["owners.txt"]],
                *_allocation_check(OWNER_PLAYERS, data["owners"])),
        Command("allocate_large", ["allocate", paths["owners-large.txt"]],
                *_allocation_check(OWNER_PLAYERS, data["owners_large"])),
        Command("dhondt", ["dhondt", *map(str, votes), "--seats", str(DHONDT_SEATS)],
                dhondt_check, dhondt_mutate),
    ]


def commands(workload: str, inputs: Inputs, paths: dict[str, str], oracle_cmd) -> list[Command]:
    """The CLI commands of one round, with their checks."""
    if workload == "tables":
        return _tables_commands(inputs.data, paths)
    if workload == "oracle":
        return _oracle_commands(inputs.data, paths, oracle_cmd)
    return _objects_commands(inputs.data, paths)
