"""The statistics and pair order of bench/ab.py, without running a benchmark."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "bench" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_sign_test_p_values():
    """Exact two-sided binomial tails, capped at 1."""
    assert ab.sign_test_p(10, 0) == ab.sign_test_p(0, 10) == 2 / 1024
    assert ab.sign_test_p(9, 1) == 22 / 1024
    assert ab.sign_test_p(5, 5) == 1.0
    assert ab.sign_test_p(0, 0) == 1.0


def test_ties_count_for_neither_side():
    """Pairs with equal values add ties, not wins or losses, and leave the
    p-value of the other pairs as it is; the better direction sets what a
    win is."""
    base = [10.0] * 9 + [5.0, 7.0]
    change = [9.0] * 9 + [6.0, 7.0]
    lower = ab.compare(base, change, "lower")
    assert (lower["wins"], lower["ties"], lower["losses"]) == (9, 1, 1)
    assert lower["p"] == 22 / 1024
    higher = ab.compare(base, change, "higher")
    assert (higher["wins"], higher["ties"], higher["losses"]) == (1, 1, 9)
    assert lower["base"]["median"] == 10.0 and lower["change"]["median"] == 9.0


def test_pairs_alternate_which_side_runs_first():
    assert ab.pair_order(4) == [("base", "change"), ("change", "base"),
                                ("base", "change"), ("change", "base")]
