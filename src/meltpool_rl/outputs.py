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
    """The header row through csv.writer, which quotes a name such as
    ``a(-1,-1)``, then each row as its fields' str() joined by commas.
    Each field is an int or a float (Python or numpy), or a non-empty
    string with no comma, quote, CR or LF, so no field needs quoting and
    the bytes are csv.writer's; that holds for every table the package
    writes."""
    buf = io.StringIO()
    csv.writer(buf).writerow(header)
    buf.writelines(",".join(map(str, row)) + "\r\n" for row in rows)
    _replace(path, buf.getvalue())


def write_json(path, obj, sort_keys: bool = False) -> None:
    """obj as 2-space-indented JSON and a final newline."""
    _replace(path, json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")
