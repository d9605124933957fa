"""Hypothesis profiles for the test suite.

``tier1``, the default, makes the verdict depend only on the tree: each
``@given`` test draws the same examples on every run (``derandomize``), no
example database carries draws from one run to the next, and a failure
prints the blob that reproduces it.

``explore``, selected with ``HYPOTHESIS_PROFILE=explore``, draws fresh random
examples and keeps the failures it finds in the local ``.hypothesis``
database.  It runs outside tier-1, to look for counterexamples; each one
found becomes an ``@example`` on its test.  Every ``@given`` test sets its
own ``max_examples``, which overrides any profile, so ``explore`` changes
which examples are drawn, not how many.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, print_blob=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
