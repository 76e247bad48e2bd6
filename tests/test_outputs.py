"""Output writers: the CSV writer's bytes against csv.writer's, JSON
format, and, for every CLI command, nothing left beside --out and CSV
rows that need no quoting."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
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

numbers = st.one_of(
    st.integers(), st.floats(),
    st.sampled_from([np.float64(-0.0), np.float64(1e16), np.float64(np.nan), np.float32(0.1),
                     np.int64(-2**63), np.int32(7)]),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64))
# the strings the package's tables hold: rounded and repr'd numbers
formatted = st.one_of(st.floats().map(lambda x: f"{x:.4f}"), st.floats().map(repr))
SPECIAL = [float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e16, 1e-05]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(numbers, formatted), max_size=9), max_size=6))
@example(rows=[SPECIAL, [0, -1, 2**70], [np.float64(x) for x in SPECIAL],
               [f"{x:.4f}" for x in SPECIAL] + [repr(x) for x in SPECIAL]])
def test_numbers_csv_matches_csv_writer(tmp_path_factory, rows):
    """Rows of ints, floats (Python or numpy) and number strings give
    csv.writer's bytes, under a header with names that need quoting."""
    header = ["state_id", "a(-1,-1)", 'say "hi"', "plain"]
    path = tmp_path_factory.mktemp("numbers") / "rows.csv"
    write_csv(path, header, rows)
    want = io.StringIO()
    csv.writer(want).writerows([header, *rows])
    assert path.read_bytes() == want.getvalue().encode()


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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "out"]


@pytest.mark.parametrize("command", [["train"], ["map"], ["sweep", "--param", "episodes"]])
def test_cli_csv_fields_need_no_quoting(tmp_path, command):
    """Every CSV row a command writes is its fields joined by commas:
    csv.reader reads each line after the header as that line split on
    commas, into as many fields as the header names, and no field holds
    a quote, so no column carries text that needs quoting."""
    config = tmp_path / "config.yaml"
    config.write_text(SMALL)
    out = tmp_path / "out"
    assert main(["--config", str(config), *command, "--out", str(out)]) == EXIT_OK
    paths = sorted(out.rglob("*.csv"))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = [line.split(",") for line in lines[1:]]
        assert fields, path
        assert rows[1:] == fields, path
        assert all(len(f) == len(rows[0]) for f in fields), path
        assert not any('"' in line for line in lines[1:]), path
