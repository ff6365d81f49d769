"""Byte lock over many `decide` reports at once: one SHA-256 digest.

The reports are `format_verdict(decide_outerspatial(...))` on every golden
`.complex` (sorted by name) followed by `random_complex(s, max_vertices=9)`
for s < 300.  Each report enters the hash after a line naming its input.
A change meant to keep the output bytes must keep this digest.  After an
intended output change, print the new digest with

    PYTHONPATH=src python tests/test_report_digest.py

and replace `DIGEST` below.
"""

import hashlib
from pathlib import Path

from outerspatial.decider import decide_outerspatial
from outerspatial.fileformat import format_verdict, parse_complex
from outerspatial.generators import random_complex

GOLDEN = Path(__file__).parent / "golden"
RANDOM_SEEDS = range(300)

DIGEST = "905f621d700bd1ee35a930b309057d6bef089481f897fdef7a23488f435cc418"


def report_digest() -> tuple[str, int]:
    """The hex digest over all reports and the number of reports hashed."""
    h = hashlib.sha256()
    count = 0

    def add(name, complex):
        nonlocal count
        h.update(f"== {name}\n".encode())
        h.update(format_verdict(decide_outerspatial(complex)).encode())
        count += 1

    for path in sorted(GOLDEN.glob("*.complex")):
        add(path.stem, parse_complex(path.read_text()))
    for s in RANDOM_SEEDS:
        add(f"random_complex({s}, max_vertices=9)", random_complex(s, max_vertices=9))
    return h.hexdigest(), count


def test_reports_keep_their_digest():
    digest, count = report_digest()
    assert count == len(list(GOLDEN.glob("*.complex"))) + len(RANDOM_SEEDS)
    assert digest == DIGEST


if __name__ == "__main__":
    digest, count = report_digest()
    print(f"{digest}  ({count} reports)")
