"""tools/check_experiments_md.py: the EXPERIMENTS.md archive gate."""

import importlib.util
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def checker(tmp_path, monkeypatch):
    """The gate module, pointed at a private copy of the archives."""
    spec = importlib.util.spec_from_file_location(
        "check_experiments_md", ROOT / "tools" / "check_experiments_md.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    archives = tmp_path / "output"
    shutil.copytree(ROOT / "benchmarks" / "output", archives)
    monkeypatch.setattr(module, "OUTPUT_DIR", archives)
    return module


def test_missing_gated_archive_fails_the_gate(checker, capsys):
    assert checker.main([]) == 0
    capsys.readouterr()
    stem = "crash_recovery"
    assert stem in checker.CHECKS
    (checker.OUTPUT_DIR / f"{stem}.txt").unlink()
    assert checker.main([]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {stem}: gated archive {stem}.txt is missing" in out


def test_stale_ungated_entry_fails_list_gates(checker, tmp_path, monkeypatch, capsys):
    """An UNGATED_TABLES entry whose table is gone fails --list-gates,
    so an exemption cannot outlive the table it was written for."""
    assert checker.main(["--list-gates"]) == 0
    capsys.readouterr()
    lines = checker.EXPERIMENTS_MD.read_text().splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("| stage |"))
    end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text("".join(lines[:start] + lines[end:]))
    monkeypatch.setattr(checker, "EXPERIMENTS_MD", copy)
    assert checker.main(["--list-gates"]) == 1
    out = capsys.readouterr().out
    assert "STALE    UNGATED_TABLES entry ('stage', 'total ms')" in out
