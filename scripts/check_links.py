#!/usr/bin/env python3
"""Fail on dead relative links in the repo's markdown docs, and on dead
doc references in its code.

Markdown files: every markdown link's relative target (optionally with a
#fragment) must exist on disk, relative to the file containing the link.
External (scheme://), mailto: and pure #fragment links are skipped; so are
links inside fenced code blocks, which in this repo are command examples,
not navigation.

Code files (.cc, .hh, .cpp, .h, .py, .txt, .cmake): every mention of a
markdown file must exist. A bare NAME.md names a file at the repo root or
in docs/; a mention with a directory (docs/ARCHITECTURE.md) is a path from
the repo root.

Usage: scripts/check_links.py [file-or-dir ...]   (default: README.md docs/)
Exit status: 0 if every link and reference resolves, 1 otherwise.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"^\s*(```|~~~)")
DOC_MENTION = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")
CODE_SUFFIXES = {".cc", ".hh", ".cpp", ".h", ".py", ".txt", ".cmake"}


def candidate_files(args):
    roots = [Path(a) for a in args] if args else [Path("README.md"), Path("docs")]
    for root in roots:
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for f in files:
            if f.is_file() and (f.suffix == ".md" or f.suffix in CODE_SUFFIXES):
                yield f


def dead_links(md: Path):
    dead = []
    in_fence = False
    for lineno, line in enumerate(md.read_text().splitlines(), start=1):
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK.findall(line):
            if "://" in target or target.startswith(("mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (md.parent / path).exists():
                dead.append((lineno, f"dead relative link: {target}"))
    return dead


def dead_doc_mentions(code: Path):
    dead = []
    text = code.read_text(errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for name in DOC_MENTION.findall(line):
            homes = [ROOT / name] if "/" in name else [ROOT / name, ROOT / "docs" / name]
            if not any(p.is_file() for p in homes):
                dead.append((lineno, f"dead doc reference: {name}"))
    return dead


def main(argv):
    files = list(candidate_files(argv))
    if not files:
        print("check_links: no files found", file=sys.stderr)
        return 1
    failures = 0
    for f in files:
        dead = dead_links(f) if f.suffix == ".md" else dead_doc_mentions(f)
        for lineno, what in dead:
            print(f"{f}:{lineno}: {what}", file=sys.stderr)
            failures += 1
    print(f"check_links: {len(files)} file(s), {failures} dead link(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
