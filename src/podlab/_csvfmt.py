"""CSV rows of float columns, shared by the trace and PRBS artifacts."""
from __future__ import annotations

import numpy as np

# rows converted to Python floats at a time, which bounds the transient lists
_CHUNK = 1024


def format_rows(header: str, *columns: np.ndarray) -> list[str]:
    """``header``, then row i of ``columns`` with every value as ``%.9g``."""
    template = ",".join(["%.9g"] * len(columns))
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows = [header]
    for i in range(0, len(columns[0]), _CHUNK):
        rows += [template % r for r in zip(*(c[i : i + _CHUNK].tolist() for c in columns))]
    return rows
