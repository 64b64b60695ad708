"""The test configuration in pyproject.toml reports failures as they are."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_reports_its_falsifying_example(pytester):
    """Under the repo's warning filters, a failing hypothesis test ends with its
    falsifying example. To report it, hypothesis imports libcst, which warns that
    ``mypy_extensions.TypedDict`` is deprecated; turned into an error inside
    pytest's report hook, that warning aborted the run with an INTERNALERROR."""
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_failing="""
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @settings(database=None, max_examples=5)
        @given(st.integers())
        def test_fails(x):
            assert x != x
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_failing.py")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*"])
    result.assert_outcomes(failed=1)
