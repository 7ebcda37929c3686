"""The CSV comparer of ``tools/csv_diff.py`` and the README commands it reads."""

import importlib.util
from pathlib import Path

import pytest

from cvqe.cli import build_parser
from test_golden_csv import CASES

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("csv_diff", ROOT / "tools" / "csv_diff.py")
csv_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(csv_diff)

TABLE = "seed,nfev,best_cost,sector_miss\n0,12,0.25,false\n1,14,-0.5,true\n"


def _trees(tmp_path, change_text):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, text in ((parent, TABLE), (change, change_text)):
        (root / "golden").mkdir(parents=True)
        (root / "golden" / "vqe.csv").write_text(text, newline="")
        (root / "readme.csv").write_text(TABLE, newline="")
    return csv_diff.compare_trees(parent, change)


def test_identical_trees(tmp_path):
    lines, same = _trees(tmp_path, TABLE)
    assert same
    assert lines == ["golden/vqe.csv: identical", "readme.csv: identical"]


def test_float_off_by_a_rounding_step(tmp_path):
    lines, same = _trees(tmp_path, TABLE.replace("0.25", repr(0.25 + 1e-15)))
    assert not same
    head, _, value = lines[0].rpartition(" ")
    assert head == "golden/vqe.csv: largest float difference"
    assert float(value) == pytest.approx(1e-15, rel=0.01)
    assert lines[1] == "readme.csv: identical"


def test_float_cell_that_prints_as_an_int(tmp_path):
    lines, same = _trees(tmp_path, TABLE.replace("-0.5", "-1"))
    assert not same
    assert lines[0] == "golden/vqe.csv: largest float difference 0.5"


def test_int_cell_that_differs(tmp_path):
    lines, same = _trees(tmp_path, TABLE.replace("0,12,", "0,13,"))
    assert not same
    assert lines[0] == "golden/vqe.csv: line 2, nfev: 12 -> 13"


def test_changed_row_count(tmp_path):
    lines, same = _trees(tmp_path, TABLE + "2,9,0.1,false\n")
    assert not same
    assert lines[0] == "golden/vqe.csv: row count 2 -> 3"


def test_missing_file(tmp_path):
    _trees(tmp_path, TABLE)
    (tmp_path / "change" / "readme.csv").unlink()
    lines, same = csv_diff.compare_trees(tmp_path / "parent", tmp_path / "change")
    assert not same
    assert lines[1] == "readme.csv: missing in change"


def test_readme_block_gives_five_commands_the_parser_accepts():
    commands = csv_diff.readme_commands(ROOT / "README.md")
    assert [argv[0] for argv in commands] == ["spectrum", "vqe", "scan-mu", "vqd", "envelope"]
    for argv in commands:
        assert build_parser().parse_args(argv).command == argv[0]


def test_golden_cases_read_without_import():
    assert csv_diff.golden_cases(ROOT) == CASES


@pytest.mark.parametrize("argv", [["vqe", "--out", "a.csv"], ["vqe"]])
def test_out_is_replaced_or_added(argv, tmp_path):
    got = csv_diff._with_out(argv, tmp_path / "b.csv")
    assert got == ["vqe", "--out", str(tmp_path / "b.csv")]
