"""Docs check: every repo path, ``repro.*`` name and ``REPRO_*`` variable
referenced by README.md and docs/ARCHITECTURE.md must exist.

Scans the two documents for things that look like repository paths
(`src/repro/...`, `tests/`, `benchmarks/...py`, bare module files inside
backticks or links) and fails if any referenced file or directory is
missing -- so the architecture map cannot silently rot as the tree
changes.  It also fails when a backticked dotted name such as
`repro.rtl.kernel.kernel_for` no longer resolves by import plus
``getattr``, or when a ``REPRO_*`` environment variable the documents
mention occurs nowhere in src/, tests/ or .github/.

Run: python tools/check_docs.py
"""

import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "docs" / "ARCHITECTURE.md"]

# path-like tokens inside backticks or markdown links
BACKTICK = re.compile(r"`([A-Za-z0-9_./-]+)`")
LINK = re.compile(r"\]\(([A-Za-z0-9_./-]+)\)")
# a backticked dotted name in the package, optionally called: `repro.x.y()`
DOTTED = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")
ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+\b")

# roots a doc reference may start with; anything else in backticks is
# treated as code, not a path
PATH_ROOTS = (
    "src/",
    "tests/",
    "benchmarks/",
    "examples/",
    "docs/",
    "tools/",
)
SUFFIXES = (".py", ".md")
# where a documented environment variable must still be read or set
ENV_HOMES = ("src", "tests", ".github")


def candidate_paths(text):
    for pattern in (BACKTICK, LINK):
        for token in pattern.findall(text):
            token = token.rstrip("/")
            if token.startswith(PATH_ROOTS) or token.endswith(SUFFIXES):
                # `module.py` without a directory is ambiguous -- skip
                if "/" not in token:
                    continue
                yield token


def resolves(name):
    """Whether ``name`` is an importable module, or an attribute chain
    reachable by ``getattr`` from the longest importable prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is not None and module_name.startswith(exc.name):
                continue
            raise
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def env_var_corpus():
    chunks = []
    for home in ENV_HOMES:
        for path in sorted((ROOT / home).rglob("*")):
            if path.is_file() and path.suffix in (".py", ".yml", ".yaml"):
                chunks.append(path.read_text(errors="replace"))
    return "\n".join(chunks)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    missing = []
    checked = 0
    corpus = env_var_corpus()
    for doc in DOCS:
        if not doc.exists():
            missing.append((str(doc.relative_to(ROOT)), "(document itself)"))
            continue
        text = doc.read_text()
        for ref in sorted(set(candidate_paths(text))):
            checked += 1
            # package-relative references (e.g. `rtl/scheduler.py`)
            # resolve against src/repro/
            in_repo = (ROOT / ref).exists()
            in_package = (ROOT / "src" / "repro" / ref).exists()
            if not in_repo and not in_package:
                missing.append((doc.name, "path " + ref))
        for name in sorted(set(DOTTED.findall(text))):
            checked += 1
            if not resolves(name):
                missing.append((doc.name, "name " + name))
        for var in sorted(set(ENV_VAR.findall(text))):
            checked += 1
            if not re.search(r"\b{}\b".format(var), corpus):
                missing.append((doc.name, "environment variable " + var))
    if missing:
        for doc, ref in missing:
            print("{}: missing referenced {}".format(doc, ref), file=sys.stderr)
        return 1
    print("docs check OK: {} references resolve".format(checked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
