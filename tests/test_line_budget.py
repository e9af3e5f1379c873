"""The line budget of the package: no change may leave ``src/ggnfem``
longer.  A change that removes lines lowers ``BUDGET`` to the count it
leaves (``wc -l src/ggnfem/*.py``)."""

import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ggnfem")
BUDGET = 3091


def test_package_within_line_budget():
    total = 0
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            total += fh.read().count("\n")
    assert total <= BUDGET, f"src/ggnfem has {total} lines, budget {BUDGET}"
