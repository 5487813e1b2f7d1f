"""The mutant list of tests/mutants.py stays in step with the code.

Every mutant's text must occur exactly once in `src/`, in the file it
names, so that a change to the code cannot leave a mutant silently
pointing at nothing.  The mutants themselves are not run here.
"""

import os

import pytest

import mutants


def _sources():
    out = {}
    for dirpath, _, files in os.walk(mutants.SRC):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                with open(path, encoding="utf-8") as fh:
                    out[os.path.relpath(path, mutants.SRC)] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_mutant_text_occurs_once_in_src(name):
    path, text, replacement, selection = mutants.MUTANTS[name]
    sources = _sources()
    assert sum(code.count(text) for code in sources.values()) == 1
    assert sources[os.path.normpath(path)].count(text) == 1
    assert replacement != text
    assert selection and all(
        os.path.exists(os.path.join(mutants.ROOT, s)) for s in selection)


def test_equivalent_mutants_are_mutants():
    assert set(mutants.EQUIVALENT) <= set(mutants.MUTANTS)
