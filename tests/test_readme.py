"""The README's examples run as written.

The Python quick tour is executed and its printed values compared with
the comments beside them; each `console` example is run through
`cli.main` in a temporary directory holding a copy of `tests/data`, and its
output compared line by line (`...` stands for any run of lines).
"""

import contextlib
import io
import os
import re
import shlex
import shutil

import pytest

import corpus
from koszulmf import cli

README = os.path.join(os.path.dirname(corpus.DATA), os.pardir, "README.md")


def _blocks(lang):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def _matches(want, got):
    """True when the lines `got` match `want`, whose `...` lines each stand
    for any run of lines, none included."""
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                      for line in want)
    return re.fullmatch(pattern, "".join(line + "\n" for line in got)) \
        is not None


def test_quick_tour_prints_what_its_comments_say():
    (tour,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["1 1", "(0, 0)"]


def test_console_examples_print_what_the_readme_shows(tmp_path, monkeypatch):
    examples = _blocks("console")
    assert len(examples) == 3
    shutil.copytree(corpus.DATA, tmp_path / "tests" / "data")
    monkeypatch.chdir(tmp_path)
    for example in examples:      # in order: the second reads w.json
        command, *want = example.splitlines()
        prog, *argv = shlex.split(command.removeprefix("$ "))
        assert prog == "koszulmf"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code == 0, command
        got = out.getvalue().splitlines()
        assert _matches(want, got), (command, got)


@pytest.mark.parametrize("want,got,ok", [
    (["a", "b"], ["a", "b"], True),
    (["a", "b"], ["a", "b", "c"], False),
    (["a", "...", "d"], ["a", "b", "c", "d"], True),
    (["a", "...", "d"], ["a", "d"], True),
    (["a", "...", "d"], ["a", "b", "c"], False),
    (["a", "...", "c", "...", "e"], ["a", "b", "c", "d", "e"], True),
])
def test_elision_matcher(want, got, ok):
    assert _matches(want, got) is ok
