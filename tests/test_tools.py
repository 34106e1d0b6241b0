"""The repo tooling under ``tools/`` that quoted figures depend on."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_code_lines_skips_blank_comment_and_docstring_lines():
    source = '''"""Module docstring
over two lines."""

import os  # a trailing comment does not disqualify the line

# a comment-only line


class A:
    """Class docstring."""

    def f(self):
        """Method docstring."""
        text = """a string that is
        data, not a docstring"""
        return (
            text
        )
'''
    # import, class, def, the 2-line string assignment, the 3-line return
    assert _load("count_code_lines").count_code_lines(source) == 8
