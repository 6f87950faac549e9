"""The repository's pytest settings report a falsified property as a failure."""

pytest_plugins = ["pytester"]

FALSIFIED_AND_PASSING = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_falsified(x):
    assert x < 10

def test_passes():
    pass
"""


def test_falsified_property_does_not_abort_the_session(pytester, pytestconfig):
    # The repository's own pytest settings, warning filters included. A fresh
    # interpreter, since the warning fires only where hypothesis first
    # imports its failure reporter.
    pytester.makepyprojecttoml(pytestconfig.inipath.read_text())
    pytester.makepyfile(test_property=FALSIFIED_AND_PASSING)
    result = pytester.runpytest_subprocess("test_property.py")
    result.assert_outcomes(failed=1, passed=1)
