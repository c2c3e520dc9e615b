"""The README's library examples run as written and print the verdicts
their comments give."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_examples_print_the_verdicts_their_comments_give():
    # The "Defining a component" example is the only code that orders bool
    # values (its `cflag` cell holds False and True).
    printed = []
    for code in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, str(README), "exec"), {})
        printed.append(out.getvalue().split())
        assert printed[-1] == re.findall(r'^print\(.*# "(\w+)"$', code, re.M)
    assert printed == [["pass"], ["pass", "pass"]]
