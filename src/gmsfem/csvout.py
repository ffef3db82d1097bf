"""The one CSV row writer behind every output file."""

import numpy as np

__all__ = ["write_csv"]


def _cell(value):
    # repr is the shortest string that reads back as the same float
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def write_csv(path, header, rows):
    """Write ``header`` and then ``rows``, comma separated: floats in repr
    form, so the file round-trips exactly, and every other value by str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
