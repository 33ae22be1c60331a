"""The README's python examples run and give the values their comments
state, and its command line example prints the output it shows."""

import ast
import pathlib
import re
import shlex

from deflator.cli import main

README = pathlib.Path(__file__).parents[1] / "README.md"


def run_example(block):
    """Execute a README block and return the value of its last line."""
    *body, last = ast.parse(block).body
    namespace = {}
    exec(compile(ast.Module(body, type_ignores=[]), str(README), "exec"), namespace)
    return eval(compile(ast.Expression(last.value), str(README), "eval"), namespace)


def test_readme_examples_give_their_commented_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    assert "# (-2.0, 0.0)" in blocks[0].splitlines()[-1]
    assert "# True" in blocks[1].splitlines()[-1]
    assert run_example(blocks[0]) == (-2.0, 0.0)
    assert run_example(blocks[1]) is True


def test_readme_cli_example_prints_its_shown_output(capsys, monkeypatch):
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
              if b.startswith("$ deflator ")]
    assert len(blocks) == 1
    command, shown = blocks[0].split("\n", 1)
    monkeypatch.chdir(README.parent)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == shown
