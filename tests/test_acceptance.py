"""End-to-end acceptance checks.

Each test covers one release criterion at its stated corpus size, tolerance,
and runtime budget, and prints a single PASS/FAIL line (visible with
``pytest tests/test_acceptance.py -s``).
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from indivisible import (
    Region,
    RegionalVotes,
    SamplerConfig,
    TableOracle,
    coalition,
    coalition_game_from_regions,
    game_from_owners,
    game_linear,
    in_core,
    indivisible_shapley,
    is_convex,
    isv_allocation,
    isv_from_dividends,
    isv_large,
    isv_oracle_convex,
    lp_distance,
    make_game,
    members,
    sample_shapley_matrix,
    shapley_exact,
    shapley_matrix_exact,
    unanimity_game,
)

from oracles import (
    FIVE_PLAYER_OWNERS,
    coalition_seats_by_dhondt,
    enumerate_integer_core,
    floor_half_game,
    random_fractional_game,
    random_owner_list,
    random_positive_int_game,
    shapley_by_permutations,
    two_goods_game,
)

F = Fraction


def report(number: int, name: str, ok: bool, elapsed: float, budget: float | None = None):
    verdict = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.1f}s" + (f" / {budget:.0f}s budget)" if budget else ")")
    print(f"criterion {number} [{name}]: {verdict}{extra}")
    assert ok, f"criterion {number} ({name}) failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def game_from_random_dividends(rng, n, denominator=4):
    """Game reconstructed from dividends drawn uniformly over small rationals."""
    table = [F(0)] * (1 << n)
    for mask in range(1, 1 << n):
        d = F(rng.randint(-2 * denominator, 2 * denominator), denominator)
        if d == 0:
            continue
        rest = ((1 << n) - 1) ^ mask
        sub = rest
        while True:
            table[mask | sub] += d
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return make_game(n, [(m, v) for m, v in enumerate(table) if m and v])


def test_criterion_1_shapley_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(10_001)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 7)
        g = game_from_random_dividends(rng, n)
        if list(shapley_exact(g)) != shapley_by_permutations(g):
            ok = False
            break
    report(1, "exact Shapley vs permutation enumeration", ok, time.monotonic() - start, 30)


def test_criterion_2_two_goods_trace():
    start = time.monotonic()
    result = indivisible_shapley(two_goods_game(), record_games=True)
    ok = result.payoffs == (1, 1, 0, 1, 0)
    labels_1, first = result.games[1]
    expect_first = game_linear(
        F(1), unanimity_game(4, coalition([0, 1])),
        F(1), unanimity_game(4, coalition([2, 3])),
    )
    ok = ok and labels_1 == (1, 2, 3, 4) and first == expect_first
    labels_2, second = result.games[2]
    ok = ok and labels_2 == (2, 3, 4) and second == unanimity_game(3, coalition([1, 2]))
    report(2, "two-goods solver trace", ok, time.monotonic() - start)


def test_criterion_3_convex_integer_suite():
    start = time.monotonic()
    rng = random.Random(10_003)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 6)
        g = random_positive_int_game(rng, n)
        sv = shapley_exact(g)
        payoffs = indivisible_shapley(g).payoffs
        ok = ok and all(isinstance(p, int) for p in payoffs)
        ok = ok and sum(payoffs) == g.grand_value
        ok = ok and all(
            math.floor(s) <= p <= math.ceil(s) for s, p in zip(sv, payoffs)
        )
        ok = ok and in_core(g, payoffs)
        ok = ok and payoffs == isv_oracle_convex(g)
        choices = [sorted({math.floor(s), math.ceil(s)}) for s in sv]
        rivals = [
            y for y in product(*choices) if sum(y) == g.grand_value and in_core(g, y)
        ]
        for p in (1, 2, 3):
            ours = lp_distance(payoffs, sv, p)
            ok = ok and all(ours <= lp_distance(y, sv, p) for y in rivals)
        if not ok:
            break
    report(3, "convex integer games: quotas, core, minimality", ok, time.monotonic() - start, 120)


def test_criterion_4_general_games_and_empty_indivisible_core():
    start = time.monotonic()
    rng = random.Random(10_004)
    ok = True
    produced = 0
    while produced < 200:
        g = random_fractional_game(rng, rng.randint(2, 6))
        if is_convex(g):
            continue
        produced += 1
        sv = shapley_exact(g)
        payoffs = indivisible_shapley(g).payoffs
        ok = ok and sum(payoffs) == g.grand_value
        ok = ok and all(
            math.floor(s) <= p <= math.ceil(s) for s, p in zip(sv, payoffs)
        )
        if not ok:
            break
    ok = ok and enumerate_integer_core(floor_half_game()) == []
    report(4, "general fractional games: quotas hold, core may not", ok, time.monotonic() - start)


def sparse_unit_dividends(rng, n, denominator=64):
    """A handful of dividends in [0, 1] on random coalitions."""
    dividends = {}
    for _ in range(rng.randint(4, 9)):
        mask = coalition(rng.sample(range(n), rng.randint(1, n)))
        if mask not in dividends:
            dividends[mask] = F(rng.randint(1, denominator), denominator)
    return dividends


def game_of_dividends(n, dividends):
    table = [F(0)] * (1 << n)
    for mask, d in dividends.items():
        rest = ((1 << n) - 1) ^ mask
        sub = rest
        while True:
            table[mask | sub] += d
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return make_game(n, [(m, v) for m, v in enumerate(table) if m and v])


def test_criterion_5_matrix_estimator():
    start = time.monotonic()
    rng = random.Random(10_005)
    ok = True
    # exhaustive mode equals the exact matrix off-diagonal
    for _ in range(100):
        n = rng.randint(2, 6)
        g = game_from_random_dividends(rng, n, denominator=8)
        est = sample_shapley_matrix(TableOracle(g), SamplerConfig(exhaustive=True))
        exact = shapley_matrix_exact(g)
        for i in range(n):
            for j in range(n):
                if i != j and abs(est[i][j] - float(exact[i][j])) > 1e-9:
                    ok = False
        if not ok:
            break
    # sampled mode concentrates around the exact matrix
    worst = 0.0
    for trial in range(10):
        n = 6
        dividends = sparse_unit_dividends(rng, n)
        g = game_of_dividends(n, dividends)
        exact = shapley_matrix_exact(g)
        est = sample_shapley_matrix(
            TableOracle(g), SamplerConfig(samples=200_000, seed=77_000 + trial)
        )
        for i in range(n):
            for j in range(n):
                if i != j:
                    worst = max(worst, abs(est[i][j] - float(exact[i][j])))
    ok = ok and worst <= 0.02
    report(
        5,
        f"matrix estimator (worst sampled error {worst:.4f})",
        ok,
        time.monotonic() - start,
        180,
    )


def test_criterion_6_allocation_agreement():
    start = time.monotonic()
    rng = random.Random(10_006)
    ok = True
    for _ in range(300):
        ol = random_owner_list(rng, rng.randint(1, 6), max_objects=8)
        allocation = isv_allocation(ol)
        ok = ok and allocation.counts == indivisible_shapley(game_from_owners(ol)).payoffs
        ok = ok and all(
            ol.owners[obj] >> player & 1
            for obj, player in enumerate(allocation.assignment)
        )
        if not ok:
            break
    ok = ok and isv_allocation(FIVE_PLAYER_OWNERS).counts == (1, 1, 1, 1, 0)
    report(6, "matching allocation equals exact solver", ok, time.monotonic() - start, 60)


def test_criterion_7_dividend_input_equivalence():
    start = time.monotonic()
    rng = random.Random(10_007)
    ok = True
    for _ in range(100):
        n = rng.randint(2, 6)
        dividends = {}
        for _ in range(rng.randint(1, 10)):
            mask = coalition(rng.sample(range(n), rng.randint(1, n)))
            if mask not in dividends:
                dividends[mask] = F(rng.randint(1, 5))
        g = game_of_dividends(n, dividends)
        ok = ok and isv_from_dividends(n, list(dividends.items())) == indivisible_shapley(g).payoffs
        if not ok:
            break
    report(7, "dividend-list input equals exact solver", ok, time.monotonic() - start)


def synergy_matrix_from_dividends(n, dividends):
    mat = [[0.0] * n for _ in range(n)]
    for mask, d in dividends.items():
        share = float(d) / (mask.bit_count() ** 2)
        ms = members(mask)
        for i in ms:
            for j in ms:
                mat[i][j] += share
    return mat


def test_criterion_8_large_game_lower_quota():
    start = time.monotonic()
    rng = random.Random(10_008)
    ok = True
    for trial in range(200):
        n = rng.randint(2, 12)
        dividends = sparse_unit_dividends(rng, n, denominator=16)
        dividends[(1 << n) - 1] = F(1)  # shared dividend keeps row sums positive
        synergy = synergy_matrix_from_dividends(n, dividends)
        if n <= 7 and trial % 10 == 0:
            exact = shapley_matrix_exact(game_of_dividends(n, dividends))
            ok = ok and all(
                abs(synergy[i][j] - float(exact[i][j])) <= 1e-12
                for i in range(n)
                for j in range(n)
            )
        raw = [rng.randint(0, 192) for _ in range(n)]
        total = sum(raw) // 64 + 1
        phi = [r / 64 for r in raw]
        phi[0] += total - sum(phi)
        if phi[0] < 0:
            continue
        floors = [math.floor(p) for p in phi]
        for alpha in (0.0, 0.5, 1.0):
            grants = isv_large(phi, synergy, total, alpha=alpha)
            ok = ok and sum(grants) == total
            ok = ok and all(g >= f for g, f in zip(grants, floors))
        # alpha=1 tracks the pure synergy-proportional redistribution; the
        # grants after each prefix of the loop pin every pick in order
        reference_phi = list(phi)
        counts = [0] * n
        for step in range(1, total + 1):
            best = max(range(n), key=lambda j: reference_phi[j])
            if reference_phi[best] > 1.0:
                reference_phi[best] -= 1.0
            else:
                deficit = 1.0 - reference_phi[best]
                denom = sum(synergy[best][k] for k in range(n) if k != best)
                for j in range(n):
                    if j != best:
                        reference_phi[j] -= deficit * (synergy[best][j] / denom)
                reference_phi[best] = 0.0
            counts[best] += 1
            ok = ok and isv_large(phi, synergy, step, alpha=1.0) == counts
        if not ok:
            break
    report(8, "large-game grants respect lower quotas", ok, time.monotonic() - start)


def test_criterion_9_cli_determinism(tmp_path):
    import shlex
    import subprocess
    import sys

    from indivisible.formats import format_game, format_owner_list

    start = time.monotonic()
    game_path = tmp_path / "game.txt"
    game_path.write_text(format_game(two_goods_game()))
    owners_path = tmp_path / "owners.txt"
    owners_path.write_text(format_owner_list(FIVE_PLAYER_OWNERS))
    ballots_path = tmp_path / "ballots.txt"
    ballots_path.write_text("parties 2 A B\n3 0\n1 0,1\n")
    regions_path = tmp_path / "regions.txt"
    regions_path.write_text("parties 2 A B\nregion 3 30 25 | 100\n")
    oracle_path = tmp_path / "oracle.py"
    oracle_path.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    bits = line.strip()\n"
        "    print(sum(i + 1 for i, c in enumerate(bits) if c == '1'))\n"
        "    sys.stdout.flush()\n"
    )
    oracle_cmd = f"{shlex.quote(sys.executable)} -u {shlex.quote(str(oracle_path))}"

    commands = [
        ["shapley", str(game_path)],
        ["--format", "machine", "shapley", str(game_path)],
        ["isv", str(game_path)],
        ["dividends", str(game_path)],
        ["matrix", str(game_path)],
        ["check", str(game_path), "--vector", "1,1,0,1,0"],
        ["allocate", str(owners_path)],
        ["apportion", str(ballots_path), "--seats", "4"],
        ["dhondt", "100", "80", "30", "--seats", "8"],
        ["coalition", str(regions_path)],
        ["sample", "4", "--oracle", oracle_cmd, "--k", "3000", "--seed", "5"],
        ["sample", "4", "--oracle", oracle_cmd, "--k", "3000", "--seed", "5", "--matrix"],
        ["large", "--oracle", oracle_cmd, "--n", "3", "--total", "2", "--k", "500", "--seed", "2"],
    ]

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "indivisible.cli", *args],
            capture_output=True,
        )

    ok = True
    for args in commands:
        first, second = run(args), run(args)
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and first.stdout == second.stdout
        if not ok:
            raise AssertionError(f"nondeterministic or failing command: {args}")
    # a run that merges two accumulation chunks repeats byte for byte too
    first = run(["sample", "4", "--oracle", oracle_cmd, "--k", "4096", "--seed", "9"])
    second = run(["sample", "4", "--oracle", oracle_cmd, "--k", "4096", "--seed", "9"])
    ok = ok and first.stdout == second.stdout
    ok = ok and first.returncode == 0 and second.returncode == 0
    report(9, "byte-identical CLI reruns", ok, time.monotonic() - start)


def test_criterion_10_cli_at_the_table_cap(tmp_path):
    """CLI ``isv``, ``check`` and ``matrix`` on a dense 20-player table, in-process."""
    import io
    import json

    from indivisible.cli import main
    from indivisible.games import game_from_weights

    rng = random.Random(10_010)
    n = 20
    weights = [rng.randint(1, 9) for _ in range(n)]
    synergies = {}
    while len(synergies) < 30:
        i, j = sorted(rng.sample(range(n), 2))
        synergies[i, j] = rng.randint(1, 4)
    dividends = [(1 << i, w) for i, w in enumerate(weights)]
    dividends += [((1 << i) | (1 << j), s) for (i, j), s in synergies.items()]
    values = game_from_weights(n, dividends).values.nums
    names = [""] * (1 << n)
    for mask in range(1, 1 << n):
        rest = mask & (mask - 1)
        low = str((mask ^ rest).bit_length() - 1)
        names[mask] = low + "," + names[rest] if rest else low
    path = tmp_path / "dense20.game"
    path.write_text(
        f"players {n}\n" + "".join(f"{names[m]} {values[m]}\n" for m in range(1, 1 << n))
    )
    del names
    # closed forms: a pair's synergy is split in halves, and in quarters in the matrix
    phi = [F(w) for w in weights]
    mat = [[F(0)] * n for _ in range(n)]
    for i, w in enumerate(weights):
        mat[i][i] = F(w)
    for (i, j), s in synergies.items():
        phi[i] += F(s, 2)
        phi[j] += F(s, 2)
        for a in (i, j):
            for b in (i, j):
                mat[a][b] += F(s, 4)
    grand = values[-1]

    def run(*args):
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        code = main(["--format", "machine", *args, str(path)], out=out, err=err)
        elapsed = time.monotonic() - start
        assert code == 0, err.getvalue()
        return json.loads(out.getvalue()), elapsed

    budget = 30
    ok = True
    times = []
    doc, elapsed = run("isv")
    times.append(elapsed)
    payoffs = [int(p) for p in doc["values"]]
    ok = ok and sum(payoffs) == grand
    ok = ok and all(math.floor(s) <= p <= math.ceil(s) for p, s in zip(payoffs, phi))
    doc, elapsed = run("check", "--vector", ",".join(str(s) for s in phi))
    times.append(elapsed)
    ok = ok and doc["values"] == {
        "convex": True,
        "positive": True,
        "size-bounded": False,
        "core": True,
    }
    doc, elapsed = run("matrix")
    times.append(elapsed)
    ok = ok and [[F(v) for v in row] for row in doc["values"]] == mat
    ok = ok and F(doc["total"]) == grand
    report(
        10,
        "isv, check and matrix on a dense 20-player table ("
        + ", ".join(f"{t:.1f}s" for t in times)
        + ")",
        ok,
        max(times),
        budget,
    )


def test_criterion_11_regional_game_at_the_table_cap():
    """The coalition game of 20 member parties over 20 regions."""
    rng = random.Random(11_011)
    m = 20
    regions, outsiders = [], []
    for _ in range(20):
        regions.append(Region(rng.randint(3, 12), tuple(rng.randint(0, 5000) for _ in range(m))))
        outsiders.append(tuple(rng.randint(1000, 30000) for _ in range(3)))
    rv = RegionalVotes(tuple(regions))
    budget = 30
    start = time.monotonic()
    g = coalition_game_from_regions(rv, range(m), outsiders)
    elapsed = time.monotonic() - start
    masks = [0, (1 << m) - 1, *(1 << i for i in range(m))]
    masks += [rng.randrange(1 << m) for _ in range(200)]
    ok = all(g.values[s] == coalition_seats_by_dhondt(rv, range(m), outsiders, s) for s in masks)
    report(11, f"regional coalition game of {m} members", ok, elapsed, budget)
