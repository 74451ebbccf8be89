"""Every ```python block of README.md runs as written, each in a fresh namespace."""
import re
from pathlib import Path

import pytest

from sgedr.cli import EXIT_USAGE, main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


# README's exit-4 paragraph quotes these messages; each argv must print one
QUOTED_ERRORS = re.findall(r"`(error: [^`]*)`", README.read_text())
QUOTED_ARGVS = [
    ["tau-opt", "--dt", "0"],
    ["experiment", "--k-min", "0.5"],
    ["region", "--steps", "100"],
]


def test_quoted_errors_are_printed(capsys):
    assert len(QUOTED_ERRORS) == len(QUOTED_ARGVS)
    for argv, quoted in zip(QUOTED_ARGVS, QUOTED_ERRORS):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", quoted + "\n"), argv
