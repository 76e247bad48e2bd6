"""The statistics, pair order and working-tree copy of bench/ab.py,
without running a benchmark."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

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


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_copy_worktree_takes_what_git_would_track(tmp_path):
    """A modified tracked file is copied as it is now, an untracked file
    is copied, and an ignored or deleted file is not."""
    repo, dest = tmp_path / "repo", tmp_path / "dest"
    (repo / "pkg").mkdir(parents=True)
    dest.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=repo, check=True, capture_output=True)
    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "pkg" / "tracked.py").write_text("old\n")
    (repo / "gone.py").write_text("gone\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "tracked.py").write_text("new\n")
    (repo / "gone.py").unlink()
    (repo / "pkg" / "untracked.py").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")
    ab.copy_worktree(repo, dest)
    copied = {p.relative_to(dest).as_posix(): p.read_text()
              for p in dest.rglob("*") if p.is_file()}
    assert copied == {".gitignore": "ignored.txt\n", "pkg/tracked.py": "new\n",
                      "pkg/untracked.py": "untracked\n"}
