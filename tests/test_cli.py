import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time

import pytest

from indivisible import cli, sampling
from indivisible.formats import format_game, format_owner_list

from oracles import floor_half_game, sized_owner_list, two_goods_game, within

ADDITIVE_SCRIPT = """\
import sys
for line in sys.stdin:
    bits = line.strip()
    print(sum(i + 1 for i, c in enumerate(bits) if c == "1"))
    sys.stdout.flush()
"""

BROKEN_SCRIPT = """\
import sys
for line in sys.stdin:
    print("not-a-number")
    sys.stdout.flush()
"""

INFINITE_SCRIPT = """\
import sys
for line in sys.stdin:
    print("0" if "1" not in line else "1e999")
    sys.stdout.flush()
"""

PARITY_SCRIPT = """\
import sys
for line in sys.stdin:
    size = line.count("1")
    print(0 if size == 0 else "1e308" if size % 2 else "-1e308")
    sys.stdout.flush()
"""


UNDECODABLE_SCRIPT = """\
import sys
for line in sys.stdin:
    sys.stdout.buffer.write(b"\\xff\\n")
    sys.stdout.flush()
"""


def run_cli(*args):
    res = subprocess.run(
        [sys.executable, "-m", "indivisible.cli", *args],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in res.stderr
    return res


def write_game(tmp_path, game, name="game.txt"):
    path = tmp_path / name
    path.write_text(format_game(game))
    return str(path)


def oracle_command(tmp_path, script, name="oracle.py"):
    path = tmp_path / name
    path.write_text(script)
    return f"{shlex.quote(sys.executable)} -u {shlex.quote(str(path))}"


class TestGameCommands:
    def test_shapley(self, tmp_path):
        res = run_cli("shapley", write_game(tmp_path, two_goods_game()))
        assert res.returncode == 0
        assert res.stdout.splitlines() == [
            "player 0 2/3",
            "player 1 2/3",
            "player 2 2/3",
            "player 3 1/2",
            "player 4 1/2",
            "total 3",
        ]

    def test_isv(self, tmp_path):
        res = run_cli("isv", write_game(tmp_path, two_goods_game()))
        assert res.returncode == 0
        assert res.stdout.splitlines() == [
            "player 0 1",
            "player 1 1",
            "player 2 0",
            "player 3 1",
            "player 4 0",
            "total 3",
        ]

    def test_check_half_game(self, tmp_path):
        res = run_cli("check", write_game(tmp_path, floor_half_game()))
        lines = res.stdout.splitlines()
        assert "convex: no" in lines
        assert "positive: no" in lines
        assert "size-bounded: yes" in lines

    def test_check_core_vector(self, tmp_path):
        path = write_game(tmp_path, floor_half_game())
        good = run_cli("check", path, "--vector", "1/2,1/2,1/2,1/2")
        assert "core: yes" in good.stdout.splitlines()
        bad = run_cli("check", path, "--vector", "1,1,0,0")
        assert "core: no" in bad.stdout.splitlines()

    def test_dividends(self, tmp_path):
        res = run_cli("dividends", write_game(tmp_path, two_goods_game()))
        assert res.stdout.splitlines() == [
            "coalition 0,1,2 2",
            "coalition 3,4 1",
            "total 3",
        ]

    def test_matrix(self, tmp_path):
        res = run_cli("matrix", write_game(tmp_path, two_goods_game()))
        lines = res.stdout.splitlines()
        assert lines[0] == "row 0 2/9 2/9 2/9 0 0"
        assert lines[-1] == "total 3"


class TestElectionCommands:
    def test_dhondt(self):
        res = run_cli("dhondt", "100", "80", "30", "--seats", "8")
        assert res.returncode == 0
        assert res.stdout.splitlines() == [
            "player 0 4",
            "player 1 3",
            "player 2 1",
            "total 8",
        ]

    def test_apportion(self, tmp_path):
        path = tmp_path / "ballots.txt"
        path.write_text("parties 2 A B\n3 0\n1 0,1\n")
        res = run_cli("apportion", str(path), "--seats", "4")
        assert res.stdout.splitlines() == ["player 0 4", "player 1 0", "total 4"]

    def test_coalition(self, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("parties 2 A B\nregion 3 30 25 | 100\nregion 3 30 25 | 100\n")
        res = run_cli("coalition", str(path))
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1] == "total 2"

    def test_coalition_region_without_member_votes(self, tmp_path):
        # the first region is worth 0 seats to every coalition
        path = tmp_path / "regions.txt"
        path.write_text("parties 2 A B\nregion 2 0 0 | 5 3\nregion 3 4 1 | 2\n")
        res = run_cli("coalition", str(path))
        assert res.returncode == 0
        assert res.stdout.splitlines() == ["player 0 2", "player 1 0", "total 2"]

    def test_coalition_region_without_any_votes(self, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("parties 2 A B\nregion 2 0 0\nregion 3 4 1 | 2\n")
        res = run_cli("coalition", str(path))
        assert (res.returncode, res.stdout) == (1, "")
        assert "region 0" in res.stderr


class TestAllocate:
    def test_allocation_lines(self, tmp_path):
        path = tmp_path / "owners.txt"
        path.write_text("players 2\n0\n1\n")
        res = run_cli("allocate", str(path))
        assert res.stdout.splitlines() == [
            "0 -> 0",
            "1 -> 1",
            "player 0 1",
            "player 1 1",
            "total 2",
        ]

    def test_200_players_5000_objects(self, tmp_path):
        path = tmp_path / "owners.txt"
        path.write_text(format_owner_list(sized_owner_list(random.Random(449), 200, 5000)))
        res = run_cli("allocate", str(path))
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout.splitlines()[-1] == "total 5000"

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("human", "5cf61634076fefdfb9bb3766a21da0841af979e91e94b5999974e3d9552a56f2"),
            ("machine", "9cffe35203ca63061eb04c396c72bf3776dd8e36d721f366b0a15b4f221bb576"),
        ],
    )
    def test_200_players_1000_objects_output_is_pinned(self, tmp_path, fmt, digest):
        # every byte: the assignment lines or trace, the counts and the total
        path = tmp_path / "owners.txt"
        path.write_text(format_owner_list(sized_owner_list(random.Random(449), 200, 1000)))
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(["--format", fmt, "allocate", str(path)], out, err) == 0
        assert err.getvalue() == ""
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


class TestSampling:
    def test_sample_additive_exact(self, tmp_path):
        cmd = oracle_command(tmp_path, ADDITIVE_SCRIPT)
        res = run_cli("sample", "3", "--oracle", cmd, "--k", "64", "--seed", "1")
        assert res.returncode == 0
        assert res.stdout.splitlines() == [
            "player 0 1.0",
            "player 1 2.0",
            "player 2 3.0",
            "total 6.0",
        ]

    def test_sample_matrix_additive(self, tmp_path):
        cmd = oracle_command(tmp_path, ADDITIVE_SCRIPT)
        res = run_cli(
            "sample", "3", "--oracle", cmd, "--k", "32", "--seed", "0", "--matrix"
        )
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "row 0 0.0 0.0 0.0"

    def test_large_pipeline(self, tmp_path):
        cmd = oracle_command(tmp_path, ADDITIVE_SCRIPT)
        res = run_cli(
            "large", "--oracle", cmd, "--n", "3", "--total", "2",
            "--alpha", "0.5", "--k", "128", "--seed", "7",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[-1] == "total 2"


class TestMachineFormat:
    def test_isv_machine_matches_human(self, tmp_path):
        path = write_game(tmp_path, two_goods_game())
        machine = run_cli("--format", "machine", "isv", path)
        doc = json.loads(machine.stdout)
        assert doc["command"] == "isv"
        assert doc["players"] == 5
        assert doc["values"] == ["1", "1", "0", "1", "0"]
        assert doc["total"] == "3"
        assert ["floor", 0, 0] in doc["trace"]
        assert ["granted", 3, 1] in doc["trace"]

    def test_shapley_machine_numbers(self, tmp_path):
        path = write_game(tmp_path, two_goods_game())
        doc = json.loads(run_cli("--format", "machine", "shapley", path).stdout)
        assert doc["values"] == ["2/3", "2/3", "2/3", "1/2", "1/2"]


class TestDeterminism:
    def test_reruns_byte_identical(self, tmp_path):
        path = write_game(tmp_path, two_goods_game())
        a = run_cli("isv", path)
        b = run_cli("isv", path)
        assert a.stdout == b.stdout

    def test_sampling_reruns_byte_identical(self, tmp_path):
        cmd = oracle_command(tmp_path, ADDITIVE_SCRIPT)
        # 4101 permutations span three accumulation chunks
        runs = [
            run_cli("sample", "3", "--oracle", cmd, "--k", "4101", "--seed", "3")
            for _ in range(2)
        ]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("players 2\n5 1\n")
        res = run_cli("shapley", str(path))
        assert res.returncode == 1
        assert "bad.txt:2" in res.stderr

    def test_missing_file_is_one(self):
        res = run_cli("shapley", "/nonexistent/game.txt")
        assert res.returncode == 1

    def test_usage_error_is_one(self):
        res = run_cli("frobnicate")
        assert res.returncode == 1

    def test_fractional_grand_is_one(self, tmp_path):
        path = tmp_path / "frac.txt"
        path.write_text("players 2\n0,1 3/2\n")
        res = run_cli("isv", str(path))
        assert res.returncode == 1

    def test_protocol_failure_is_two(self, tmp_path):
        cmd = oracle_command(tmp_path, BROKEN_SCRIPT)
        res = run_cli("sample", "2", "--oracle", cmd, "--k", "4")
        assert res.returncode == 2
        assert "oracle" in res.stderr

    def test_unusable_oracle_command_is_two(self):
        for command in ('"x', "", "   "):
            res = run_cli("sample", "3", "--oracle", command, "--k", "5")
            assert res.returncode == 2
            assert "Traceback" not in res.stderr
            assert "oracle error" in res.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            # yes fills its output pipe with replies that nobody reads
            (["3", "--oracle", "yes", "--k", "5"], "oracle sent more replies than the 7 queries"),
            # cat still owes the echoes of the next run when a value fails the gate
            (["400", "--oracle", "cat", "--k", "10"], "oracle value inf for coalition mask"),
        ],
        ids=["failed exchange", "replies owed"],
    )
    def test_failed_oracle_session_ends_promptly(self, args, message):
        with within(2):
            res = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "indivisible.cli", "sample", *args],
                capture_output=True,
                text=True,
            )
        assert res.returncode == 2
        assert res.stdout == ""
        # one line, the message alone: no ResourceWarning from the pipes or the child
        assert res.stderr.startswith("oracle error: " + message)
        assert res.stderr.count("\n") == 1

    def test_non_positive_player_count_is_one(self, tmp_path):
        cmd = oracle_command(tmp_path, ADDITIVE_SCRIPT)
        for args in (
            ["sample", "0", "--oracle", cmd, "--k", "5"],
            ["sample", "-1", "--oracle", cmd, "--k", "5"],
            ["large", "--oracle", cmd, "--n", "-2", "--total", "2", "--k", "5"],
        ):
            res = run_cli(*args)
            assert res.returncode == 1
            assert "player count" in res.stderr
            assert res.stdout == ""

    def test_non_finite_reply_is_two(self, tmp_path):
        cmd = oracle_command(tmp_path, INFINITE_SCRIPT)
        res = run_cli("sample", "2", "--oracle", cmd, "--k", "4")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "nan" not in res.stdout and "inf" not in res.stdout

    def test_overflowing_estimate_is_two(self, tmp_path):
        cmd = oracle_command(tmp_path, PARITY_SCRIPT)
        for args in (
            ["sample", "3", "--oracle", cmd, "--k", "10"],
            ["sample", "3", "--oracle", cmd, "--k", "10", "--matrix"],
            ["large", "--oracle", cmd, "--n", "3", "--total", "1", "--k", "10"],
        ):
            res = run_cli(*args)
            assert res.returncode == 2
            assert res.stdout == ""
            assert "Traceback" not in res.stderr

    def test_undecodable_file_is_one(self, tmp_path):
        path = tmp_path / "game.txt"
        path.write_bytes(b"players 2\n0 1\n\xff\n")
        res = run_cli("shapley", str(path))
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: cannot read {path}")
        assert res.stdout == ""

    def test_undecodable_reply_is_two(self, tmp_path):
        cmd = oracle_command(tmp_path, UNDECODABLE_SCRIPT)
        res = run_cli("sample", "2", "--oracle", cmd, "--k", "4")
        assert res.returncode == 2
        assert res.stderr.startswith("oracle error: malformed oracle reply")
        assert res.stdout == ""

    def test_out_of_memory_is_one(self):
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no address-space limit on this platform")
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)

        def limit_address_space():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

        # the first ask's 2048 query lines of 1000000 characters are 2 GB of
        # text even when held once, as they are appended to the unsent bytes
        res = subprocess.run(
            [sys.executable, "-m", "indivisible.cli", "sample", "1000000"]
            + ["--oracle", "cat", "--k", "1"],
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
            timeout=120,
        )
        assert res.returncode == 1
        assert res.stderr == "error: out of memory\n"
        assert res.stdout == ""


# Small valid inputs of the four file formats, and where each goes on the
# command line; every mutant of every file runs through all eight commands.
FILES = {
    "game": "players 3\n# comment\n0 1\n0,1 5/2\n1,2 2\n0,1,2 4\n",
    "owners": "players 3\n0\n0,1\n1,2\n2\n0,1,2\n",
    "ballots": "parties 3 A B C\n3 0\n2 0,1\n1 1,2\n4 2\n",
    "regional": "parties 2 A B\nregion 3 30 25 | 100\nregion 2 10 40 | 20 5\n",
}
FILE_COMMANDS = [
    ["shapley", "{}"],
    ["dividends", "{}"],
    ["check", "{}", "--vector", "1,1,2"],
    ["isv", "{}"],
    ["matrix", "{}"],
    ["allocate", "{}"],
    ["apportion", "{}", "--seats", "4"],
    ["coalition", "{}"],
]

# oracle replies that break the line protocol; each must end in exit 2
BAD_REPLIES = {
    "malformed": 'print("abc")',
    "empty line": "print()",
    "nan": 'print("nan")',
    "infinite": 'print("1e999")',
    "undecodable": 'sys.stdout.buffer.write(b"\\xff\\n")',
    "exits after one reply": "print(0)\n    sys.stdout.flush()\n    break",
    "late reply": '__import__("time").sleep(60)\n    print(0)',
}


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out, err)  # nothing may escape main
    assert code in (0, 1, 2)
    # a result is written whole on success, and nothing but the error on failure
    assert (out.getvalue() != "", err.getvalue() == "") == (code == 0, code == 0)
    return code


def mutate(rng, data: bytes) -> bytes:
    """One replaced, inserted or deleted byte."""
    pos = rng.randrange(len(data) + 1)
    op = rng.choice(("replace", "insert", "delete")) if pos < len(data) else "insert"
    byte = bytes([rng.randrange(256)])
    if op == "replace":
        return data[:pos] + byte + data[pos + 1 :]
    if op == "insert":
        return data[:pos] + byte + data[pos:]
    return data[:pos] + data[pos + 1 :]


class TestGuarantee:
    """Every run exits 0, 1 or 2, and no exception escapes ``main``."""

    @pytest.mark.parametrize("kind, seed", [(k, s) for k in FILES for s in (1, 2)])
    def test_mutated_files(self, tmp_path, kind, seed):
        rng = random.Random(f"{kind}-{seed}")
        data = FILES[kind].encode()
        path = tmp_path / kind
        codes = set()
        for _ in range(60):
            path.write_bytes(mutate(rng, data))
            for argv in FILE_COMMANDS:
                codes.add(in_process([a.format(path) for a in argv]))
        assert codes == {0, 1}

    @pytest.mark.parametrize("reply", BAD_REPLIES.values(), ids=BAD_REPLIES.keys())
    def test_bad_oracle_replies(self, tmp_path, monkeypatch, reply):
        monkeypatch.setattr(sampling, "_REPLY_TIMEOUT", 1.0)  # the late reply comes after it
        script = f"import sys\nfor line in sys.stdin:\n    {reply}\n    sys.stdout.flush()\n"
        cmd = oracle_command(tmp_path, script)
        for argv in (
            ["sample", "3", "--oracle", cmd, "--k", "5"],
            ["sample", "3", "--oracle", cmd, "--k", "5", "--matrix"],
            ["large", "--oracle", cmd, "--n", "3", "--total", "2", "--k", "5"],
        ):
            assert in_process(argv) == 2

    def test_silent_oracle_is_killed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sampling, "_REPLY_TIMEOUT", 1.0)
        pid_file = tmp_path / "pid"
        script = (
            "import os, sys, time\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "sys.stdin.readline()\n"
            "print(1, flush=True)\n"  # so the pid file is written before the deadline runs
            "time.sleep(60)\n"
        )
        cmd = oracle_command(tmp_path, script)
        for argv in (
            ["sample", "3", "--oracle", cmd, "--k", "5"],
            ["large", "--oracle", cmd, "--n", "3", "--total", "2", "--k", "5"],
        ):
            start = time.monotonic()
            assert in_process(argv) == 2
            assert time.monotonic() - start < 4.5  # the 1 s deadline, not close()'s 5 s grace
            with pytest.raises(ProcessLookupError):  # killed and reaped, not a zombie
                os.kill(int(pid_file.read_text()), 0)

    def test_bad_alpha_is_one_before_any_query(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sampling, "_REPLY_TIMEOUT", 10.0)  # how long a query would wait
        cmd = oracle_command(tmp_path, "import sys\nfor line in sys.stdin:\n    pass\n")
        argv = ["large", "--oracle", cmd, "--n", "3", "--total", "2", "--alpha", "2"]
        start = time.monotonic()
        assert in_process(argv) == 1  # in_process also checks that stdout stays empty
        assert time.monotonic() - start < 5

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_closed_stdout_is_one(self, tmp_path, fmt):
        path = write_game(tmp_path, two_goods_game())
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child writes: a short result fits the pipe buffer
        try:
            res = subprocess.run(
                [sys.executable, "-m", "indivisible.cli", "--format", fmt, "isv", path],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "Exception ignored" not in res.stderr


class TestParserReuse:
    def test_repeated_calls_match_fresh_runs(self, tmp_path):
        path = write_game(tmp_path, two_goods_game())
        runs = [
            ["shapley", path],
            ["--format", "machine", "isv", path],
            ["isv", path],
            ["check", path, "--vector", "1,1,0,1,0"],
            ["check", path],
            ["isv"],
            ["--format", "machine", "dhondt", "5", "3", "--seats", "4"],
            ["dhondt", "5", "3", "--seats", "4"],
        ]

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            return cli.main(argv, out, err), out.getvalue(), err.getvalue()

        reused = [run(argv) for argv in runs]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in runs:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 1, 0, 0]
