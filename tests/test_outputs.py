"""Output writer: whole-file replacement, CSV round-trip, JSON format,
and no temporary files left behind by the CLI."""

import csv
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meltpool_rl.cli import EXIT_OK, main
from meltpool_rl.outputs import write_csv, write_json

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
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [[1, 2]])
    before = path.read_bytes()

    def rows():
        yield [3, 4]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_csv(path, ["a", "b"], rows())
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.lists(cells, max_size=4), max_size=6))
def test_csv_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(path, ["x", "y"], rows)
    with open(path, encoding="utf-8", newline="") as fh:
        back = list(csv.reader(fh))
    assert back == [["x", "y"]] + [[str(c) for c in row] for row in rows]


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
