"""The docs checker passes on the repo's own docs, and catches drift."""

import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "..", "tools")
sys.path.insert(0, os.path.abspath(TOOLS))

import check_docs  # noqa: E402


def test_repo_docs_are_consistent():
    """Links resolve and every documented knob exists in code."""
    assert check_docs.main() == 0


def test_cli_exit_status():
    script = os.path.join(TOOLS, "check_docs.py")
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_broken_link_detected(tmp_path):
    text = "see [here](does-not-exist.md) and [ok](https://example.com)"
    path = tmp_path / "doc.md"
    path.write_text(text)
    problems = check_docs.check_links(str(path), text)
    assert len(problems) == 1 and "does-not-exist.md" in problems[0]


def test_anchor_and_external_links_skipped(tmp_path):
    text = "[a](#section) [b](mailto:x@y.z) [c](http://x)"
    problems = check_docs.check_links(str(tmp_path / "doc.md"), text)
    assert problems == []


@pytest.mark.parametrize("mention,broken", [
    ("`MiniSQLConfig.locking`", False),
    ("`MiniSQLConfig.wal_batch_size`", False),
    ("`MiniKVConfig.stripes`", False),
    ("`MiniKVConfig.shards`", False),
    ("`MiniKVConfig.aof_batch_size`", False),
    ("`MiniSQLConfig.no_such_knob`", True),
    ("`MiniKVConfig.vanished`", True),
])
def test_knob_mentions_checked(mention, broken):
    fields = check_docs._config_fields()
    problems = check_docs.check_knobs("doc.md", mention, fields)
    assert bool(problems) == broken


def test_knob_coverage_flags_undocumented_field():
    """A config field no doc mentions is reported (new knobs can't ship silent)."""
    fields = {"MiniKVConfig": {"stripes", "shards"}, "MiniSQLConfig": {"locking"}}
    texts = {
        "a.md": "tune `MiniKVConfig.stripes` for stripe counts",
        "b.md": "and `MiniSQLConfig.locking` for the lock mode",
    }
    problems = check_docs.check_knob_coverage(texts, fields)
    assert len(problems) == 1 and "MiniKVConfig.shards" in problems[0]


def test_knob_coverage_spans_the_doc_set():
    """Coverage counts mentions across all docs, not per file."""
    fields = {"MiniKVConfig": {"stripes"}, "MiniSQLConfig": set()}
    texts = {"a.md": "nothing here", "b.md": "`MiniKVConfig.stripes`"}
    assert check_docs.check_knob_coverage(texts, fields) == []


def test_repo_knob_tables_cover_every_config_field():
    """Every real MiniKVConfig/MiniSQLConfig field appears in the docs."""
    fields = check_docs._config_fields()
    texts = {}
    for path in check_docs._doc_paths():
        with open(path, encoding="utf-8") as handle:
            texts[path] = handle.read()
    assert check_docs.check_knob_coverage(texts, fields) == []


def test_repo_has_no_dead_names():
    assert check_docs.check_dead_names() == []


def _write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.fixture
def fake_repo(tmp_path):
    """A package whose names cover every rule of the dead-name check."""
    _write(tmp_path, "src/repro/__init__.py",
           'from .mod import reexported\n__all__ = ["reexported"]\n')
    _write(tmp_path, "src/repro/mod.py", (
        "def helper():\n    return 1\n\n"
        "def api():\n    return helper()\n\n"
        "def reexported():\n    pass\n\n"
        "def by_path():\n    pass\n\n"
        "def by_getattr():\n    pass\n\n"
        "def test_only():\n    pass\n\n"
        "def kept():\n    pass\n\n"
        "_DEAD_TABLE = {'a'}\n"
    ))
    _write(tmp_path, "tools/tool.py", "from repro.mod import api\napi()\n")
    _write(tmp_path, "benchmarks/bench.py", (
        'TARGET = "repro.mod:by_path"\n'
        'import repro.mod\ngetattr(repro.mod, "by_getattr")()\n'
    ))
    _write(tmp_path, "tests/test_mod.py",
           "from repro.mod import test_only\ntest_only()\n")
    return tmp_path


def _flagged(problems):
    return {p.split(": ")[1].split()[0] for p in problems if "is used by" in p}


def test_dead_names_flagged(fake_repo):
    problems = check_docs.check_dead_names(
        str(fake_repo), {"repro.mod:kept": "kept on purpose"})
    # used in-module, by a tool, by path string or getattr: all live; a
    # re-export, a test-only use and no use at all keep nothing alive
    assert _flagged(problems) == {"reexported", "test_only", "_DEAD_TABLE"}
    assert len(problems) == 3


def test_stale_allowlist_entry_reported(fake_repo):
    problems = check_docs.check_dead_names(str(fake_repo), {
        "repro.mod:kept": "kept on purpose",
        "repro.mod:api": "used after all",
        "repro.mod:gone": "deleted since",
    })
    stale = [p for p in problems if "is stale" in p]
    assert len(stale) == 2
    assert any("repro.mod:api" in p for p in stale)
    assert any("repro.mod:gone" in p for p in stale)
