"""The process boundary: ``python -m divaut`` and the console script's
target ``divaut.cli:run`` behave like in-process ``cli.main``, and a process
skips interpreter teardown without losing output."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from divaut.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOUBLING = str(ROOT / "fixtures" / "doubling.aut")
LAUNCHERS = {"module": ["-m", "divaut"],
             "script-target": ["-c", "from divaut.cli import run; run()"]}


def child_env():
    """Buffered stdout (no PYTHONUNBUFFERED), the source tree importable."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, **kwargs):
    return subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True, timeout=120, **kwargs)


def write_broken(path):
    path.write_text("semiring: natural\nalphabet: [a]\nstates: [x\n")
    return str(path)


def write_nested(path):
    """An expression nested deeper than the recursive parser can follow."""
    path.write_text("semiring: natural\nalphabet: [a]\nexpr: "
                    + "cat(sym(a, 1), " * 1999 + "sym(a, 1)" + ")" * 1999 + "\n")
    return str(path)


CASES = {
    "eval-table": lambda tmp: ["eval", DOUBLING, "--word", "( a b )^w", "--n-max", "6"],
    "out-file": lambda tmp: ["normalize", DOUBLING, "--out", str(tmp / "norm.aut")],
    "error": lambda tmp: ["eval", DOUBLING, "--word", "a c"],
    "parse-error": lambda tmp: ["eval", write_broken(tmp / "broken.aut"), "--word", "a"],
    "too-deep": lambda tmp: ["from-rational", write_nested(tmp / "nested.expr"),
                             "--out", str(tmp / "nested.aut")],
}


@pytest.mark.parametrize("launcher", LAUNCHERS)
@pytest.mark.parametrize("case", CASES)
def test_process_matches_in_process_main(tmp_path, capsys, launcher, case):
    inside, outside = tmp_path / "inside", tmp_path / "outside"
    inside.mkdir()
    outside.mkdir()
    code = main(CASES[case](inside))
    captured = capsys.readouterr()
    child = spawn([*LAUNCHERS[launcher], *CASES[case](outside)])
    assert (child.returncode, child.stdout, child.stderr) == \
        (code, captured.out, captured.err)
    assert code == {"eval-table": 0, "out-file": 0, "error": 1, "parse-error": 2,
                    "too-deep": 1}[case]
    assert captured.err.startswith({"error": "error:", "parse-error": "parse error:",
                                    "too-deep": "error:"}.get(case, ""))
    assert captured.err.count("\n") == (code != 0)
    written = sorted(p.name for p in outside.iterdir())
    assert written == sorted(p.name for p in inside.iterdir())
    for name in written:
        assert (outside / name).read_text() == (inside / name).read_text()


def test_closed_stdout_pipe_exits_1_quietly():
    child = subprocess.Popen(
        [sys.executable, "-m", "divaut", "eval", DOUBLING, "--word", "( a b )^w",
         "--n-max", "5000"],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline() == b"0\t0\n"
    child.stdout.close()
    try:
        _, err = child.communicate(timeout=120)
    finally:
        child.kill()
    assert (child.returncode, err) == (1, b"")


def test_profiler_output_survives_the_fast_exit():
    child = spawn(["-m", "cProfile", "-m", "divaut", "eval", DOUBLING,
                   "--word", "a b a b a b a"])
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("128\n")
    assert "function calls" in child.stdout


def test_import_generates_no_dataclass_code():
    child = spawn(["-c", "import sys; before = set(sys.modules); import divaut.cli; "
                   "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"])
    assert child.stdout == "[]\n", child.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("n_max", ["3", "5000"], ids=["short", "past-the-buffer"])
@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_failed_stdout_write_is_one_error_line(launcher, n_max, unbuffered):
    env = child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, *LAUNCHERS[launcher], "eval", DOUBLING, "--word", "( a b )^w",
             "--n-max", n_max],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert (child.returncode, child.stderr) == \
        (1, "error: cannot write to stdout: [Errno 28] No space left on device\n")
