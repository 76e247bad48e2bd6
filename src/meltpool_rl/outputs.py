"""Output files, written whole: each is formatted in memory, written to
``<path>.tmp`` and renamed onto ``path``, so an interrupted run leaves the
previous file or none, never a truncated one.  No fsync: this guards
against process interruption, not power loss."""

import csv
import io
import json
import os


def _replace(path, text: str) -> None:
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, header, rows) -> None:
    """The header row, then rows, in csv.writer's default dialect."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    _replace(path, buf.getvalue())


def write_json(path, obj, sort_keys: bool = False) -> None:
    """obj as 2-space-indented JSON and a final newline."""
    _replace(path, json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")
