"""Tests for ``tools/grid_digest.py --against`` (the behaviour-preservation
grid compared with a saved digest).

The grid's runs are faked: what is pinned here is how rows are read and
compared, what a difference prints and the exit status.
"""

import importlib.util
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "grid_digest.py")
_spec = importlib.util.spec_from_file_location("grid_digest", _PATH)
grid_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(grid_digest)

ROWS = [
    f"{'a' * 64}  probft/none/constant n=16 seed=1 bytes=0",
    f"{'b' * 64}  probft/none/constant n=16 seed=2 bytes=0",
    f"{'c' * 64}  pbft/silent/exponential n=40 seed=1 bytes=1",
]


def _main(monkeypatch, tmp_path, rows, saved):
    monkeypatch.setattr(grid_digest, "rows", lambda: iter(rows))
    path = tmp_path / "saved.txt"
    path.write_text("\n".join(saved + [f"{'f' * 64}  total ({len(saved)} rows)"]) + "\n")
    monkeypatch.setattr(sys, "argv", ["grid_digest.py", "--against", str(path)])
    return grid_digest.main()


def test_rows_are_read_by_cell_without_the_total():
    saved = grid_digest.as_rows(line + "\n" for line in ROWS + [f"{'f' * 64}  total (3 rows)"])
    assert saved == {row[66:]: row[:64] for row in ROWS}


def test_equal_rows_exit_0(monkeypatch, tmp_path, capsys):
    assert _main(monkeypatch, tmp_path, ROWS, ROWS) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("0 rows differ")


@pytest.mark.parametrize("case", ["changed", "missing", "extra"])
def test_each_differing_row_is_printed_with_both_hashes(monkeypatch, tmp_path, capsys, case):
    saved, now = list(ROWS), list(ROWS)
    cell = ROWS[1][66:]
    if case == "changed":
        now[1] = f"{'d' * 64}  {cell}"
        expected = f"differs  {cell}  saved {'b' * 64}  now {'d' * 64}"
    elif case == "missing":
        del now[1]
        expected = f"differs  {cell}  saved {'b' * 64}  now -"
    else:
        del saved[1]
        expected = f"differs  {cell}  saved -  now {'b' * 64}"
    assert _main(monkeypatch, tmp_path, now, saved) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("differs")] == [expected]
    assert out[-1].startswith("1 rows differ")
