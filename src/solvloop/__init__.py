"""A 4-dimensional solvable matrix group, its coset loops, and verifiers.

The package exports the eight suites, the command line's ``main`` and the
types the suites take or return; every other name is imported from its
module, such as ``solvloop.group.mul``.
"""

from .group import GroupElement, GroupParam
from .subgroups import LoopPoint, classify_suite, fixed_point_suite
from .sections import PRESETS, FunctionSpec, SectionSpec, generation_suite, lemma1_suite
from .loops import loop_suite, sharp_transitivity_check
from .multgroup import group_suite, theorem2_suite
from .report import VerificationReport
from .cli import main

__version__ = "0.1.0"
