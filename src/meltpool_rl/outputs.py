"""Output files.  Each is written straight to its path: the CLI stages a
command's whole output directory and renames it into place once every
file is written, so a failed run leaves no partial directory."""

import csv
import json


def write_csv(path, header, rows) -> None:
    """The header row through csv.writer, which quotes a name such as
    ``a(-1,-1)``, then each row as its fields' str() joined by commas.
    Each field is an int or a float (Python or numpy), or a non-empty
    string with no comma, quote, CR or LF, so no field needs quoting and
    the bytes are csv.writer's; that holds for every table the package
    writes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def write_json(path, obj, sort_keys: bool = False) -> None:
    """obj as 2-space-indented JSON and a final newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")
