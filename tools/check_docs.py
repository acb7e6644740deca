#!/usr/bin/env python3
"""Docs and code consistency checker: links resolve, knobs exist, no dead names.

The classes of drift this catches, all of which have bitten real
projects:

1. **Broken intra-repo markdown links** — every ``[text](target)`` whose
   target is a relative path must point at an existing file (external
   ``http(s)://`` / ``mailto:`` targets and pure ``#anchor`` links are
   skipped; a ``path#fragment`` target is checked for the path part).
2. **Phantom config knobs** — every ``MiniKVConfig.<field>`` /
   ``MiniSQLConfig.<field>`` mention in the docs must name a real field
   of the dataclass in code, so a renamed or removed knob cannot survive
   in prose.
3. **Undocumented config knobs** (the converse) — every field of
   ``MiniKVConfig`` / ``MiniSQLConfig`` must be mentioned (as
   ``ConfigClass.field``) somewhere in the checked docs, so a newly
   added knob cannot ship silently undocumented.  The knob tables in
   ``docs/architecture.md`` are the natural home.
4. **Dead names** — every module-level name defined under ``src/repro/``
   must be used by non-test code (``src/``, ``tools/``, ``benchmarks/``,
   ``examples/``, ``perfbench/``), or be listed in
   :data:`DEAD_NAME_ALLOWLIST` with a reason.  A name only ``tests/``
   use is dead: delete it together with its tests.

Checked docs: ``README.md``, ``ROADMAP.md``, and every ``*.md`` under
``docs/``.  Exits non-zero with a report when anything is broken.  Run
from anywhere: paths resolve relative to the repo root (the parent of
this file's directory).

Used by the ``docs`` CI job and by ``tests/tools/test_check_docs.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: markdown inline link: [text](target) — good enough for our docs; code
#: spans with literal parens in URLs are not a pattern we use
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: a string naming code: ``name``, ``pkg.module.name`` or ``pkg.module:name``
_CODE_PATH_RE = re.compile(r"[A-Za-z_][\w.]*(:[A-Za-z_]\w*)?")

#: a knob mention: ConfigClass.field_name
_KNOB_RE = re.compile(r"\b(MiniKVConfig|MiniSQLConfig)\.([A-Za-z_][A-Za-z_0-9]*)")

#: documentation files under the repo root to check
DOC_FILES = ("README.md", "ROADMAP.md")
DOCS_DIR = "docs"

#: package whose module-level names the dead-name check covers
DEAD_NAME_PACKAGE = os.path.join("src", "repro")
#: directories of non-test code whose uses keep a name alive
DEAD_NAME_CONSUMERS = ("src", "tools", "benchmarks", "examples", "perfbench")
#: ``module:name`` -> why it stays although no non-test code uses it
DEAD_NAME_ALLOWLIST = {
    "repro.gdpr.compliance:requirements_for_action":
        "paper Table 1, read by article: what one GDPR action requires",
    "repro.gdpr.compliance:articles_for_attribute":
        "paper Table 1, read by attribute: the articles behind one metadata field",
    "repro.gdpr.record:ATTRIBUTE_ARTICLES":
        "paper §3.2: the GDPR articles that motivate each metadata attribute",
    "repro.gdpr.queries:FAMILIES":
        "paper §3.3: the seven query families of the taxonomy",
    "repro.gdpr.queries:queries_for_role":
        "paper Figure 1: the queries each GDPR role may issue",
}


def _config_fields() -> dict[str, set[str]]:
    """Field names of the two engine config dataclasses, from the code."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from repro.minikv.engine import MiniKVConfig
        from repro.minisql.database import MiniSQLConfig
    finally:
        sys.path.pop(0)
    return {
        "MiniKVConfig": {f.name for f in dataclasses.fields(MiniKVConfig)},
        "MiniSQLConfig": {f.name for f in dataclasses.fields(MiniSQLConfig)},
    }


def _doc_paths() -> list[str]:
    paths = [
        os.path.join(REPO_ROOT, name)
        for name in DOC_FILES
        if os.path.exists(os.path.join(REPO_ROOT, name))
    ]
    docs_dir = os.path.join(REPO_ROOT, DOCS_DIR)
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                paths.append(os.path.join(docs_dir, name))
    return paths


def check_links(path: str, text: str) -> list[str]:
    problems = []
    base = os.path.dirname(path)
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:  # pure #anchor
            continue
        resolved = os.path.normpath(os.path.join(base, file_part))
        if not os.path.exists(resolved):
            rel = os.path.relpath(path, REPO_ROOT)
            problems.append(f"{rel}: broken link -> {target}")
    return problems


def check_knobs(path: str, text: str, fields: dict[str, set[str]]) -> list[str]:
    problems = []
    for match in _KNOB_RE.finditer(text):
        config, field = match.group(1), match.group(2)
        if field not in fields[config]:
            rel = os.path.relpath(path, REPO_ROOT)
            problems.append(
                f"{rel}: {config}.{field} is documented but is not a "
                f"field of {config} (fields: {sorted(fields[config])})"
            )
    return problems


def check_knob_coverage(texts: dict[str, str], fields: dict[str, set[str]]) -> list[str]:
    """Every config field must be documented somewhere across ``texts``.

    ``texts`` maps doc path -> content; mentions are counted across the
    whole doc set, so a knob documented in any checked file (typically a
    knob table) satisfies coverage.  Returns one problem per field of
    ``fields`` that no doc mentions as ``ConfigClass.field``.
    """
    mentioned: dict[str, set[str]] = {config: set() for config in fields}
    for text in texts.values():
        for match in _KNOB_RE.finditer(text):
            mentioned[match.group(1)].add(match.group(2))
    problems = []
    for config in sorted(fields):
        for field in sorted(fields[config] - mentioned[config]):
            problems.append(
                f"{config}.{field} exists in code but is documented "
                "nowhere: add it to a knob table (docs/architecture.md)"
            )
    return problems


def _python_files(root: str, directory: str) -> list[str]:
    paths = []
    for base, subdirs, files in os.walk(os.path.join(root, directory)):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        paths.extend(os.path.join(base, f) for f in sorted(files)
                     if f.endswith(".py"))
    return paths


def _defined_names(tree: ast.Module) -> list[str]:
    """Names a module binds at top level: defs, classes, assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not name.startswith("__")]


def _used_names(tree: ast.Module) -> set[str]:
    """Identifiers a module uses: loads, attributes, and code-path strings.

    Strings count because dispatch tables, ``getattr`` and import-by-path
    (``"pkg.module:name"``) name code by string.  Imports and ``__all__``
    entries do not count: a re-export alone keeps nothing alive.
    """
    exported = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _CODE_PATH_RE.fullmatch(node.value) and id(node) not in exported):
            used.update(re.split(r"[.:]", node.value))
    return used


def check_dead_names(root: str = REPO_ROOT,
                     allowlist: dict[str, str] = DEAD_NAME_ALLOWLIST) -> list[str]:
    """Module-level names under ``src/repro/`` that no non-test code uses.

    A use anywhere in non-test code counts, the defining module included,
    so module-internal helpers pass; a same-named identifier elsewhere
    also counts, which keeps the check free of false alarms.  Allowlist
    entries that no longer name a dead name are reported too, so the list
    cannot rot.
    """
    def parse(path):
        with open(path, encoding="utf-8") as handle:
            return ast.parse(handle.read(), path)

    used: set[str] = set()
    for directory in DEAD_NAME_CONSUMERS:
        for path in _python_files(root, directory):
            if os.path.samefile(path, __file__):
                continue  # the allowlist's own strings are no uses
            used |= _used_names(parse(path))
    dead = set()
    problems = []
    src = os.path.join(root, "src")
    for path in _python_files(root, DEAD_NAME_PACKAGE):
        module = os.path.relpath(path, src)[:-3].replace(os.sep, ".")
        module = module.removesuffix(".__init__")
        for name in _defined_names(parse(path)):
            if name in used:
                continue
            dead.add(f"{module}:{name}")
            if f"{module}:{name}" not in allowlist:
                problems.append(
                    f"{os.path.relpath(path, root)}: {name} is used by no "
                    "non-test code: delete it (and its tests) or allowlist "
                    "it in tools/check_docs.py with a reason"
                )
    for entry in sorted(set(allowlist) - dead):
        problems.append(f"dead-name allowlist entry {entry} is stale: "
                        "that name is used or gone")
    return problems


def main() -> int:
    fields = _config_fields()
    paths = _doc_paths()
    if not paths:
        print("check_docs: no documentation files found", file=sys.stderr)
        return 2
    problems: list[str] = []
    texts: dict[str, str] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            texts[path] = handle.read()
    for path, text in texts.items():
        problems.extend(check_links(path, text))
        problems.extend(check_knobs(path, text, fields))
    problems.extend(check_knob_coverage(texts, fields))
    problems.extend(check_dead_names())
    if problems:
        print(f"check_docs: {len(problems)} problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(
        f"check_docs: OK ({len(paths)} files; links resolve, documented "
        "knobs exist, every config field is documented, no dead names)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
