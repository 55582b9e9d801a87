"""The one CSV writer: optional ``# key=<json>`` lines, then a table."""

from __future__ import annotations

import csv
import json
from typing import Iterable, Optional


def write_csv(path, header: Iterable, rows: Iterable, meta: Optional[dict] = None) -> str:
    """Write ``meta`` as ``# key=<json>`` lines in key order, then the
    header and rows through ``csv.writer``; returns the path."""
    with open(path, "w", newline="") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}={json.dumps(meta[key])}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)
