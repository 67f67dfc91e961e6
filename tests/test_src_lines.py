"""``tests/src_lines.py``, the line budget's one counting rule."""

import pytest

from src_lines import SRC, count_lines

SYNTHETIC = '''"""Module docstring,
over two lines."""

import math  # a trailing comment is code

# a comment


class Thing:
    """One line."""

    x = "# not a comment"

    def f(self):
        """Spans

        three lines, one of them blank inside the docstring."""
        # indented comment
        "a string statement after the docstring is code"
        return math.pi
'''


def test_src_lines_counts_a_synthetic_module():
    assert count_lines(SYNTHETIC) == {"docstring": 6, "comment": 2, "blank": 6, "code": 6}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_lines_parts_sum_to_each_module(path):
    text = path.read_text()
    counts = count_lines(text)
    assert min(counts.values()) > 0
    assert sum(counts.values()) == len(text.splitlines())
