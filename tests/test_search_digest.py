"""tools/search_digest.py: its per-seed line, its total line, the sys.path it leaves, and the checkout it reads."""

import importlib.util
import re
import shutil
import sys
from pathlib import Path

import pytest

from sic_forge.search import STOP_REASONS

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("search_digest", ROOT / "tools" / "search_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_seed_prints_its_digest_and_counts_then_the_total(tool, monkeypatch):
    monkeypatch.setattr(tool, "SEEDS", (1,))
    path = sys.path[:]
    table = tool.digests(str(ROOT / "src"))
    assert sys.path == path
    [(_, (digest, counts))] = table.items()
    line, total = tool.report(table)
    keys = ["certified", "evaluations", *STOP_REASONS]
    pattern = " ".join(["1", "[0-9a-f]{16}", *(f"{key}=([0-9]+)" for key in keys)])
    assert (match := re.fullmatch(pattern, line)) and list(map(int, match.groups())) == [counts[k] for k in keys]
    assert total == " ".join(["total", *line.split()[2:]])
    restarts = sum(restarts for _, restarts in sys.modules["workloads"].Search.dims)
    assert restarts == 248 and sum(counts[reason] for reason in STOP_REASONS) == restarts
    assert 0 < counts["certified"] <= restarts < counts["evaluations"]
    assert tool.digests(str(ROOT / "src"))[1][0] == digest


def test_each_call_digests_its_own_checkout(tool, monkeypatch, tmp_path):
    # sic_forge is already imported from src here; a copy that searches differently must still digest as itself
    monkeypatch.setattr(tool, "SEEDS", (1,))
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    search = copy / "sic_forge" / "search.py"
    text = search.read_text(encoding="utf-8")
    assert text.count("\n_ARMIJO_MEMORY = 10 ") == 1
    search.write_text(text.replace("\n_ARMIJO_MEMORY = 10 ", "\n_ARMIJO_MEMORY = 9 "), encoding="utf-8")
    before = tool.digests(str(ROOT / "src"))[1][0]
    assert tool.digests(str(copy))[1][0] != before
    assert tool.digests(str(ROOT / "src"))[1][0] == before
