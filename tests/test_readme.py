"""The README's examples run as documented."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from ncgram import Partition, PartitionClass, build_gram, compose, determinant, involution, rank
from ncgram.cli import main
from ncgram.polynomials import IntPolynomial
from ncgram.tutte import recursion_det

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines() -> list[list[str]]:
    """The argument lists of the `ncgram` commands in the "Command line" block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n+```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


def test_every_command_line_example_exits_zero(capsys):
    commands = _command_lines()
    assert len(commands) == 6
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out


def test_the_library_values_hold():
    text = README.read_text(encoding="utf-8")
    for stated in ("136951302885212160", "X^3 - X^2", "# 8:", "# 2 —"):
        assert stated in text
    m = build_gram(4, PartitionClass.NONCROSSING, N=4)
    assert determinant(m) == recursion_det(4, 4) == 136951302885212160
    X = IntPolynomial.x()
    assert determinant(build_gram(2)) == X**3 - X**2
    assert rank(build_gram(4, PartitionClass.ALL, N=2)) == 8
    p = Partition.from_text("0|4|0010")
    assert compose(involution(p), p).remaining_loops == 2
