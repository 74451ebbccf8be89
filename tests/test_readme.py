"""Every ```python block of README.md runs as written, each in a fresh namespace."""
import re
from pathlib import Path

import pytest

from sgedr._arrays import MAX_ROWS
from sgedr.cli import EXIT_USAGE, main
from sgedr.validation import ValidationResult, default_cases

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


# README's validate paragraph states the gate; ValidationResult.passed must
# draw the line where it says, so neither can drift from the other
GATE = re.search(
    r"`\|d eps\^2\| <= (\S+) \(512/n\)\^(\d+) \+ (\S+)` and\s+`\|d eta\^2\| <= (\S+)`",
    README.read_text(),
)


@pytest.mark.parametrize("n", [512, 1024, 16384])
def test_quoted_gate_is_the_one_validate_applies(n):
    assert GATE, "README no longer states validate's gate"
    at_512, power, floor, eta_bound = (float(value) for value in GATE.groups())
    eps_bound = at_512 * (512 / n) ** power + floor
    p, probe = default_cases()[0]
    exact = ValidationResult(p, probe, n, 1.0, 1.0, 1.0, 1.0)
    # 1 + a bound of 1e-13 rounds by 1.1e-3 of it at most, inside the 1e-2
    for bound, field in ((eps_bound, "eps_sq_grid"), (eta_bound, "eta_sq_grid")):
        assert exact._replace(**{field: 1.0 + bound * (1.0 - 1e-2)}).passed, field
        assert not exact._replace(**{field: 1.0 + bound * (1.0 + 1e-2)}).passed, field


# README's row-cap sentence quotes the cap and validate's largest grid, the
# largest power of two within it
def test_quoted_row_caps_are_max_rows():
    text = README.read_text()
    rows = re.search(r"at most\s+([\d,]+)\s+rows", text)
    grid = re.search(r"`validate --grid-n`\s+up\s+to\s+([\d,]+)", text)
    assert rows and grid, "README no longer states the row caps"
    assert int(rows.group(1).replace(",", "")) == MAX_ROWS
    assert int(grid.group(1).replace(",", "")) == 1 << (MAX_ROWS.bit_length() - 1)
