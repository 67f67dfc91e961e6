"""``tests/src_statements.py``, the lister of statements tier-1 never runs."""

from src_statements import function_statements, unrun

SYNTHETIC = '''"""Module docstring."""

X = 1


def f(a):
    """A docstring is no statement."""
    if a:
        return (a +
                1)
    for i in range(a):
        pass
    else:
        b = 2
    return -1


class K:
    y = 2

    def g(self):
        def inner():
            return 3
        return inner
'''


def test_function_statements_of_a_synthetic_module():
    # Module and class bodies are not listed; nested ones are, and a
    # statement spans all its lines.
    assert function_statements(SYNTHETIC) == [
        (8, 10), (9, 10), (11, 14), (12, 12), (14, 14), (15, 15),
        (22, 23), (23, 23), (24, 24)]


def test_a_statement_ran_if_any_of_its_lines_ran():
    # f(0): the if test and the loop header run, the loop does not, its
    # else does; g() runs but inner() is never called.
    assert unrun(SYNTHETIC, {8, 11, 14, 15, 22, 24}) == [9, 12, 23]
    # A multi-line statement ran if only its last line did.
    assert unrun(SYNTHETIC, {8, 10, 11, 12, 14, 15, 22, 23, 24}) == []
    assert unrun(SYNTHETIC, set()) == [8, 9, 11, 12, 14, 15, 22, 23, 24]
