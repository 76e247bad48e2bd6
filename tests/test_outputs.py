"""Output writers: whole-file replacement, CSV round-trip, the number
writer's bytes against csv.writer's, JSON format, and no temporary files
left behind by the CLI."""

import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meltpool_rl.cli import EXIT_OK, main
from meltpool_rl.outputs import write_csv, write_json, write_numbers_csv

SMALL = """\
grid:
  n: 3
qlearn:
  episodes: 5
  n_epochs: 5
sweep:
  param: episodes
  values: [2]
  replicates: 2
"""

cells = st.one_of(st.integers(), st.text(st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\x00")))


def test_failing_rows_leave_the_target_untouched(tmp_path):
    def rows():
        yield [3, 4]
        raise RuntimeError("interrupted")

    for write in (write_csv, write_numbers_csv):
        path = tmp_path / f"{write.__name__}.csv"
        write(path, ["a", "b"], [[1, 2]])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="interrupted"):
            write(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("write", [
    lambda path: write_csv(path, ["a"], [[1]]),
    lambda path: write_json(path, {"a": 1}),
    lambda path: write_numbers_csv(path, ["a"], [[1]]),
], ids=["csv", "json", "numbers"])
def test_failing_rename_removes_the_temporary_file(tmp_path, write):
    """Writing onto a directory fails at the rename; the directory and
    its contents stay as they were and no .tmp file is left."""
    target = tmp_path / "target"
    target.mkdir()
    (target / "kept.csv").write_text("previous\n")
    with pytest.raises(IsADirectoryError):
        write(target)
    assert list(tmp_path.rglob("*.tmp")) == []
    assert [p.name for p in target.iterdir()] == ["kept.csv"]
    assert (target / "kept.csv").read_text() == "previous\n"


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.lists(cells, max_size=4), max_size=6))
def test_csv_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(path, ["x", "y"], rows)
    with open(path, encoding="utf-8", newline="") as fh:
        back = list(csv.reader(fh))
    assert back == [["x", "y"]] + [[str(c) for c in row] for row in rows]


numbers = st.one_of(
    st.integers(), st.floats(),
    st.sampled_from([np.float64(-0.0), np.float64(1e16), np.float64(np.nan), np.float32(0.1),
                     np.int64(-2**63), np.int32(7)]),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64))
SPECIAL = [float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e16, 1e-05]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(numbers, max_size=9), max_size=6))
@example(rows=[SPECIAL, [0, -1, 2**70], [np.float64(x) for x in SPECIAL]])
def test_numbers_csv_matches_csv_writer(tmp_path_factory, rows):
    """Rows of ints and floats, Python or numpy, give csv.writer's bytes,
    under a header with names that need quoting."""
    header = ["state_id", "a(-1,-1)", 'say "hi"', "plain"]
    tmp = tmp_path_factory.mktemp("numbers")
    write_csv(tmp / "csv.csv", header, rows)
    write_numbers_csv(tmp / "numbers.csv", header, rows)
    assert (tmp / "numbers.csv").read_bytes() == (tmp / "csv.csv").read_bytes()


@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_format(tmp_path, sort_keys):
    obj = {"b": [1, 2.5, None], "a": {"z": "text", "y": True}}
    write_json(tmp_path / "obj.json", obj, sort_keys=sort_keys)
    assert (tmp_path / "obj.json").read_text() == \
        json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"


@pytest.mark.parametrize("command", [["train"], ["map"], ["sweep", "--param", "episodes"]])
def test_cli_leaves_no_temporary_files(tmp_path, command):
    config = tmp_path / "config.yaml"
    config.write_text(SMALL)
    out = tmp_path / "out"
    assert main(["--config", str(config), *command, "--out", str(out)]) == EXIT_OK
    assert any(out.iterdir())
    assert list(out.rglob("*.tmp")) == []
