import json
import shlex
import subprocess
import sys

from indivisible.formats import format_game

from oracles import floor_half_game, two_goods_game

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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "indivisible.cli", *args],
        capture_output=True,
        text=True,
    )


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

    def test_sampling_workers_byte_identical(self, tmp_path):
        cmd = oracle_command(tmp_path, ADDITIVE_SCRIPT)
        runs = [
            run_cli(
                "sample", "3", "--oracle", cmd, "--k", "4096",
                "--seed", "3", "--workers", workers,
            ).stdout
            for workers in ("1", "4")
        ]
        assert runs[0] == runs[1]


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

    def test_non_finite_reply_is_two(self, tmp_path):
        cmd = oracle_command(tmp_path, INFINITE_SCRIPT)
        res = run_cli("sample", "2", "--oracle", cmd, "--k", "4")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "nan" not in res.stdout and "inf" not in res.stdout
