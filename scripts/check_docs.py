#!/usr/bin/env python3
"""Docs consistency checks, run by CI.

1. Markdown link validity: every relative link target in the top-level
   *.md files must exist in the repository.
2. srmsim flag table: every flag printed by `srmsim --help` must appear in
   README.md's "## srmsim flags" table, and vice versa — the two are
   mirrors (the authoritative table is kUsage in examples/srmsim.cpp).
3. ARCHITECTURE.md section references: every "ARCHITECTURE.md §N" citation
   in the markdown files and in src/ and examples/ sources must name a
   section header that actually exists ("## N. ...").
4. Source paths: every src/, tests/, bench/, examples/, scripts/ or
   perfbench/ path cited in a reference document (PATH_DOCS: the top-level
   docs that describe the code as it stands) must exist, as cited or with a
   .cpp or .h suffix (bench and example target names).  History, plans and
   other repositories' code are not checked.

Usage: scripts/check_docs.py [--srmsim PATH_TO_SRMSIM_BINARY]
Exits non-zero with a report on any failure.
"""

import argparse
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

MD_FILES = sorted(REPO.glob("*.md"))

# [text](target) — excluding images and in-page anchors.
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")


def check_links():
    errors = []
    for md in MD_FILES:
        text = md.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                continue
            if target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            if not (md.parent / rel).exists():
                errors.append(f"{md.name}: broken relative link -> {target}")
    return errors


def flags_in(text):
    return set(FLAG_RE.findall(text))


def check_srmsim_flags(srmsim):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    m = re.search(r"^## srmsim flags\n(.*?)(?=^## )", readme,
                  re.MULTILINE | re.DOTALL)
    if not m:
        return ['README.md: missing "## srmsim flags" section']
    readme_flags = flags_in(m.group(1))

    try:
        help_text = subprocess.run(
            [srmsim, "--help"], capture_output=True, text=True, timeout=60,
            check=True).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return [f"could not run {srmsim} --help: {exc}"]
    help_flags = flags_in(help_text)

    errors = []
    for flag in sorted(help_flags - readme_flags):
        errors.append(f"README.md srmsim table is missing {flag} "
                      "(printed by srmsim --help)")
    for flag in sorted(readme_flags - help_flags):
        errors.append(f"README.md srmsim table lists {flag}, "
                      "which srmsim --help does not print")
    return errors


SECTION_REF_RE = re.compile(r"ARCHITECTURE\.md\s+§(\d+)")
SECTION_HEADER_RE = re.compile(r"^## (\d+)\.", re.MULTILINE)


def check_section_refs():
    arch = (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8")
    sections = set(SECTION_HEADER_RE.findall(arch))
    sources = list(MD_FILES)
    for root in ("src", "examples", "bench", "tests"):
        sources += sorted((REPO / root).rglob("*.h"))
        sources += sorted((REPO / root).rglob("*.cpp"))
    errors = []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for num in SECTION_REF_RE.findall(text):
            if num not in sections:
                rel = path.relative_to(REPO)
                errors.append(f"{rel}: cites ARCHITECTURE.md §{num}, "
                              f"which has no matching '## {num}.' header")
    return errors


PATH_RE = re.compile(
    r"(?<![\w./-])(?:src|tests|bench|examples|scripts|perfbench)/[\w./-]+")
PATH_DOCS = ("ARCHITECTURE.md", "CONTRACTS.md", "DESIGN.md", "EXPERIMENTS.md",
             "PAPER.md", "PAPERS.md", "README.md")


def check_source_paths():
    errors = []
    for name in PATH_DOCS:
        md = REPO / name
        text = md.read_text(encoding="utf-8")
        for cited in sorted(set(PATH_RE.findall(text))):
            path = cited.rstrip(".")
            if not any((REPO / (path + suffix)).exists()
                       for suffix in ("", ".cpp", ".h")):
                errors.append(f"{md.name}: cites {path}, which does not "
                              "exist")
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--srmsim", default=None,
                        help="path to the built srmsim binary; skips the "
                             "flag-table check if omitted")
    args = parser.parse_args()

    errors = check_links()
    errors += check_section_refs()
    errors += check_source_paths()
    if args.srmsim:
        errors += check_srmsim_flags(args.srmsim)

    if errors:
        print("docs check FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    checked = ", ".join(md.name for md in MD_FILES)
    print(f"docs check OK ({checked}"
          f"{'; srmsim flag table' if args.srmsim else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
