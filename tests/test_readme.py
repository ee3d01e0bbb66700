"""The README's examples run as documented."""

from __future__ import annotations

import ast
import importlib
import re
import shlex
from pathlib import Path

import ncgram
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


def test_every_budget_is_in_the_table_with_its_value():
    # one row per module-level *_BUDGET constant: `NAME` | value | …, the
    # value written as an integer or a power such as 10^6
    text = README.read_text(encoding="utf-8")
    source = Path(ncgram.__file__).parent
    found = {}
    for path in sorted(source.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and target.id.endswith("_BUDGET"):
                    module = importlib.import_module(f"ncgram.{path.stem}")
                    found[target.id] = getattr(module, target.id)
    assert len(found) == 7
    for name, value in found.items():
        row = re.search(rf"^\| `{name}` \| ([0-9^]+) \|", text, re.M)
        assert row, name
        base, _, exponent = row.group(1).partition("^")
        assert int(base) ** int(exponent or 1) == value, name
