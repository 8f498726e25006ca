"""Documentation link & reference checker (``make docs-check``).

Walks ``README.md`` and everything under ``docs/`` and verifies that

* relative markdown links point at files/directories that exist,
* backticked repo paths (``src/...``, ``benchmarks/results/*.txt``,
  root-level ``*.md``/``*.json``) resolve, including
  ``path::TestName`` pytest references, and
* backticked dotted code references rooted at ``repro`` import and
  resolve attribute by attribute (so renaming a function without
  updating the docs fails CI), and
* backticked ``REPRO_*`` env-knob names appear as a string somewhere
  in ``src/repro`` (so deleting a knob without updating the docs fails
  CI).

External URLs are not fetched — the repo is offline; only repo-local
targets are validated.
"""

import importlib
import os
import re

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")
SRC_DIR = os.path.join(REPO_ROOT, "src", "repro")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_RE = re.compile(r"`([^`\n]+)`")
MODULE_RE = re.compile(r"^repro(\.[A-Za-z_][A-Za-z0-9_]*)+$")
KNOB_RE = re.compile(r"REPRO_[A-Z_]+")
PATH_PREFIXES = ("src/", "docs/", "tests/", "benchmarks/", "examples/")
ROOT_FILE_EXTENSIONS = (".md", ".json")


def doc_files():
    files = [os.path.join(REPO_ROOT, "README.md")]
    if os.path.isdir(DOCS_DIR):
        files.extend(os.path.join(DOCS_DIR, name)
                     for name in sorted(os.listdir(DOCS_DIR))
                     if name.endswith(".md"))
    return files


def doc_ids():
    return [os.path.relpath(path, REPO_ROOT) for path in doc_files()]


def test_documentation_suite_exists():
    assert os.path.isfile(os.path.join(REPO_ROOT, "README.md"))
    assert os.path.isfile(os.path.join(DOCS_DIR, "architecture.md"))
    assert os.path.isfile(os.path.join(DOCS_DIR, "performance.md"))


@pytest.mark.parametrize("path", doc_files(), ids=doc_ids())
def test_markdown_links_resolve(path):
    text = open(path).read()
    base = os.path.dirname(path)
    broken = []
    for target in LINK_RE.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue                       # external; not fetched offline
        target = target.split("#", 1)[0]
        if not target:
            continue                       # pure in-page anchor
        if not os.path.exists(os.path.join(base, target)):
            broken.append(target)
    assert not broken, f"broken links in {os.path.basename(path)}: {broken}"


def _path_reference_ok(token: str) -> bool:
    """Does a backticked repo-path reference exist?"""
    target = token.split("::", 1)[0]       # pytest node ids
    return os.path.exists(os.path.join(REPO_ROOT, target))


def _code_reference_ok(dotted: str) -> bool:
    """Import the longest importable prefix, then walk attributes."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:end]))
        except ImportError:
            continue
        try:
            for attribute in parts[end:]:
                obj = getattr(obj, attribute)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("path", doc_files(), ids=doc_ids())
def test_code_references_resolve(path):
    text = open(path).read()
    broken = []
    for token in CODE_RE.findall(text):
        token = token.strip().rstrip("()")
        if not token or any(ch.isspace() for ch in token):
            continue                       # shell lines, prose snippets
        if "/" in token:
            if token.startswith(PATH_PREFIXES) \
                    and not _path_reference_ok(token):
                broken.append(token)
            continue
        if token.endswith(ROOT_FILE_EXTENSIONS):
            if not os.path.exists(os.path.join(REPO_ROOT, token)):
                broken.append(token)
            continue
        if MODULE_RE.match(token) and not _code_reference_ok(token):
            broken.append(token)
    assert not broken, \
        f"stale code references in {os.path.basename(path)}: {broken}"


def _source_text() -> str:
    parts = []
    for root, _, names in os.walk(SRC_DIR):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as handle:
                    parts.append(handle.read())
    return "\n".join(parts)


@pytest.mark.parametrize("path", doc_files(), ids=doc_ids())
def test_knob_names_exist_in_source(path):
    source = _source_text()
    names = {name for token in CODE_RE.findall(open(path).read())
             for name in KNOB_RE.findall(token)}
    dead = sorted(name for name in names
                  if f'"{name}"' not in source and f"'{name}'" not in source)
    assert not dead, f"unknown env knobs in {os.path.basename(path)}: {dead}"
