"""A line budget for the package source.

The total line count of ``src/fluxsqueeze/*.py`` (as ``wc -l`` counts
it) may not exceed ``SRC_LINE_BUDGET``, the count at which the budget
was last set.  A change that lowers the count should lower the constant
with it.  A change that raises the constant must say why in CHANGES.md.
"""

from pathlib import Path

SRC_LINE_BUDGET = 2737

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fluxsqueeze"


def test_package_source_fits_its_line_budget():
    counts = {
        path.name: path.read_text(encoding="utf-8").count("\n")
        for path in sorted(_PACKAGE.glob("*.py"))
    }
    total = sum(counts.values())
    assert total <= SRC_LINE_BUDGET, f"src/fluxsqueeze has {total} lines: {counts}"
