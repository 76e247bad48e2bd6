"""Output files, written whole: each is formatted in memory, written to
``<path>.tmp`` and renamed onto ``path``, so an interrupted run leaves the
previous file or none, never a truncated one; a failed write or rename
removes its ``.tmp`` file.  No fsync: this guards against process
interruption, not power loss."""

import contextlib
import csv
import io
import json
import os


def _replace(path, text: str) -> None:
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """The header row, then rows, in csv.writer's default dialect."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    _replace(path, buf.getvalue())


def write_numbers_csv(path, header, rows) -> None:
    """write_csv's bytes for rows of ints and floats, Python or numpy:
    csv.writer writes such a field as its str(), which never needs
    quoting, so each row is those joined by commas.  The header goes
    through csv.writer, which quotes a name holding a comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow(header)
    buf.writelines(",".join(map(str, row)) + "\r\n" for row in rows)
    _replace(path, buf.getvalue())


def write_json(path, obj, sort_keys: bool = False) -> None:
    """obj as 2-space-indented JSON and a final newline."""
    _replace(path, json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")
