"""The test settings of ``pyproject.toml`` keep a failing hypothesis
property readable: pytest prints its falsifying example and the failed
assertion, not an INTERNALERROR."""

pytest_plugins = ["pytester"]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property(n):
    assert n < 10, "n is at least 10"
'''


def test_failing_property_shows_its_falsifying_example(pytester, pytestconfig):
    # this project's warning filters, so that the run turns warnings into
    # errors as the tier-1 suite does
    filters = pytestconfig.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join(f"    {line}\n" for line in filters))
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "n is at least 10" in output
    result.assert_outcomes(failed=1)
