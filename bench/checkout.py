"""Import treestop from the src/ directory of the checkout holding this file.

The benchmark measures the code next to it, never an installed copy, so
the checkout's src/ goes first on sys.path and the imported package must
come from there.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def use_checkout_src() -> None:
    """Make ``import treestop`` resolve to the checkout; raise if it cannot."""
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import treestop
    where = os.path.abspath(treestop.__file__)
    if not where.startswith(SRC_DIR + os.sep):
        raise ImportError(f"treestop was imported from {where}, not from {SRC_DIR}")
