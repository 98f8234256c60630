"""The repository's documents point only at files that are there."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "ROADMAP.md", "CHANGES.md")


def _bench_files():
    names = set()
    for doc in DOCS:
        names |= set(re.findall(r"\bBENCH_\w+\.json\b",
                                (ROOT / doc).read_text(encoding="utf-8")))
    return sorted(names)


def test_the_docs_name_bench_files():
    assert len(_bench_files()) >= 15


@pytest.mark.parametrize("name", _bench_files())
def test_every_bench_file_named_in_the_docs_exists_and_parses(name):
    path = ROOT / name
    assert path.is_file(), f"{name} is named in the docs but missing"
    json.loads(path.read_text(encoding="utf-8"))
