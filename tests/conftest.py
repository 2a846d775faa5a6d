"""Test settings shared by every module under tests/.

The hypothesis profile only adds print_blob: a failing property example
prints its @reproduce_failure blob, so an example that one run happened to
draw can be replayed.  Drawn examples, example counts and deadlines stay
hypothesis's defaults or each test's own @settings.
"""

from hypothesis import settings

settings.register_profile("quadcone", print_blob=True)
settings.load_profile("quadcone")
