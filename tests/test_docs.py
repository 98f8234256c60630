"""The repository's documents point only at files that are there, report
the size of ``src/`` that is there, and list every config key."""

import json
import re
from pathlib import Path

import pytest

from lecollapse.config import _MODES, MODES

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


def test_the_newest_src_line_count_in_changes_is_the_count_of_src():
    # CHANGES.md reports each change's net count; the newest report, the
    # last in the file, must be what ``wc -l src/lecollapse/*.py`` counts
    text = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    reports = re.findall(r"`src/` went from (\d+) to (\d+) lines", text)
    assert reports, "CHANGES.md reports no src/ line count"
    lines = sum(p.read_bytes().count(b"\n")
                for p in (ROOT / "src" / "lecollapse").glob("*.py"))
    assert int(reports[-1][1]) == lines


def _readme_keys():
    """{mode: the keys the README's key table lists for it}."""
    rows = [[c.strip() for c in ln.strip().strip("|").split("|")]
            for ln in (ROOT / "README.md").read_text(encoding="utf-8")
            .splitlines() if ln.startswith("| ")]
    modes = next(r for r in rows if r[0] == "key")[2:]
    listed = {mode: set() for mode in modes}
    for row in rows:
        key = re.fullmatch(r"`(\w+)`", row[0])
        if key and len(row) == len(modes) + 2:
            for mode, cell in zip(modes, row[2:]):
                if cell != "–":
                    listed[mode].add(key.group(1))
    return listed


@pytest.mark.parametrize("mode", MODES)
def test_the_readme_lists_every_key_of_each_mode(mode):
    # the mode's table, common keys included, plus its per-channel key
    # written with k for the channel number
    table, per_channel, _ = _MODES[mode]
    want = set(table)
    if per_channel is not None:
        want.add(per_channel[0].pattern.replace(r"\d+", "k"))
    assert _readme_keys()[mode] == want
