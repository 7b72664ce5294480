"""The package source stays readable without horizontal scrolling."""

from pathlib import Path

import polysvd

MAX_LINE = 100


def test_no_source_line_exceeds_the_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(Path(polysvd.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []
