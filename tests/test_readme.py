"""The README's examples run and print what is written beside them: the
`nstepdet seq` lines of the CLI section and the Library block."""

import ast
import re
import shlex
from pathlib import Path

from nstepdet.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_seq_examples_print_their_comments(capsys):
    examples = re.findall(r"^nstepdet (seq .*?)\s+# (.*)$", README, re.MULTILINE)
    assert len(examples) == 2
    for argv, expected in examples:
        assert main(shlex.split(argv)) == EXIT_OK
        assert capsys.readouterr().out == expected + "\n", argv


def test_library_block_values_match_their_comments():
    block = README.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].split()
        # A comment that opens with a literal states the value; any other
        # comment describes it.
        try:
            expected = ast.literal_eval(comment[0].rstrip(","))
        except (ValueError, SyntaxError):
            continue
        assert value == expected, lines[stmt.end_lineno - 1]
        checked.append(expected)
    assert checked == [True, 274, True, 6]
