"""The README commands give the golden output bytes in tests/golden/.

A change that alters output bytes on purpose runs
``python tests/golden/regenerate.py`` and reviews the diff of the files it
rewrites.
"""
from __future__ import annotations

from pathlib import Path

from d2dlab.cli import main
from d2dlab.fixtures import write_region_log

from golden.regenerate import README, expected_files, golden_commands, golden_files, readme_commands


def test_readme_commands_give_the_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_region_log("access.csv", region=2, n_accesses=200_000, seed=0)
    commands = golden_commands()
    for argv in commands:
        assert main(argv) == 0, argv
    actual, expected = golden_files(Path("."), commands), expected_files()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"outputs differ from tests/golden/: {changed}"


def test_readme_runs_the_golden_commands():
    assert readme_commands(README.read_text(encoding="utf-8")) == golden_commands()
