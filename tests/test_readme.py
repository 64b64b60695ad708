"""The README's code blocks run as written: the library example executes and every
``augoverlap`` command line of the CLI section parses."""

import re
import shlex
from pathlib import Path

from augoverlap import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_block(section: str, language: str) -> str:
    """The first ```language block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_library_example_runs():
    exec(compile(_fenced_block("Library example", "python"), str(README), "exec"), {})


def test_cli_lines_parse():
    lines = [line for line in _fenced_block("CLI", "sh").splitlines() if line.startswith("augoverlap ")]
    assert len(lines) == 11
    parser = cli.build_parser()
    for line in lines:
        args = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(args).subcommand == args[0], line
