"""Hypothesis profiles of the test suite.

The suite runs with Hypothesis's default settings.  The `mutants` profile,
which tests/mutants.py selects with `--hypothesis-profile`, leaves out
the shrink phase and keeps no example database: a mutant's verdict needs
only the first failure, not its smallest form, and no run reads examples
saved by an earlier one.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=(Phase.explicit, Phase.generate, Phase.target),
    database=None)
