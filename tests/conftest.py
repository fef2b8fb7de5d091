"""One hypothesis profile for the whole suite.

Property tests draw the same examples on every run (derandomize) and have
no per-example deadline, so they neither vary from run to run nor fail on
a machine whose speed changes under load.
"""

from hypothesis import settings

settings.register_profile("solvloop", deadline=None, derandomize=True)
settings.load_profile("solvloop")
