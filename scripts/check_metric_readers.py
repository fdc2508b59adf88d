#!/usr/bin/env python3
"""Check that every metric name recorded in src/ has a reader.

Collects every string literal passed as the first argument of an `add`,
`record` or `observe` call in src/ (the MetricsRegistry recording calls)
and looks for each one in the readers: tests/, bench/, perfbench/,
scripts/ (this file excluded) and .github/. A name counts as read when it
occurs there as a whole name, i.e. not as part of a longer one
(`serve.requests` is not read by `serve.requests_by_tenant`). A literal
ending in '.' is a prefix the caller completes at run time, such as
`compile.pass.`; it counts as read when the prefix occurs at all.

A metric that nothing reads is either dead weight or an unchecked
signal: delete it, or give it a reader (a test assertion, a bench gate,
a CI step).

Usage: check_metric_readers.py [--repo DIR]
  --repo DIR  repository root (default: the parent of this script's
              directory)
Exits 1, listing every unread name, when any recorded name has no reader.
"""

import argparse
import os
import re
import sys

SOURCE_DIR = "src"
READER_DIRS = ["tests", "bench", "perfbench", "scripts", ".github"]
SOURCE_EXTENSIONS = (".h", ".cpp")

# The name literal may sit on the line after the call's open paren.
RECORD_CALL = re.compile(r'\b(?:add|record|observe)\(\s*"([^"\\]+)"')


def files_under(root, extensions=None):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if extensions is None or name.endswith(extensions):
                yield os.path.join(dirpath, name)


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def recorded_names(repo):
    """Maps each recorded name to the first src/ location recording it."""
    names = {}
    for path in files_under(os.path.join(repo, SOURCE_DIR),
                            SOURCE_EXTENSIONS):
        text = read_text(path)
        for match in RECORD_CALL.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            where = f"{os.path.relpath(path, repo)}:{line}"
            names.setdefault(match.group(1), where)
    return names


def reader_text(repo):
    own = os.path.realpath(__file__)
    chunks = []
    for sub in READER_DIRS:
        root = os.path.join(repo, sub)
        for path in files_under(root):
            if os.path.realpath(path) != own:
                chunks.append(read_text(path))
    return "\n".join(chunks)


def is_read(name, text):
    if name.endswith("."):
        return name in text
    pattern = r"(?<![\w.])" + re.escape(name) + r"(?!\w)"
    return re.search(pattern, text) is not None


def main():
    default_repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=default_repo)
    args = parser.parse_args()

    names = recorded_names(args.repo)
    if not names:
        sys.exit("check_metric_readers: no recorded metric names found "
                 f"under {os.path.join(args.repo, SOURCE_DIR)}")
    text = reader_text(args.repo)
    unread = sorted(n for n in names if not is_read(n, text))
    if unread:
        print(f"check_metric_readers: {len(unread)} of {len(names)} "
              "recorded metric names have no reader:")
        for name in unread:
            print(f"  {name}  ({names[name]})")
        return 1
    print(f"check_metric_readers: all {len(names)} recorded metric names "
          "have a reader")
    return 0


if __name__ == "__main__":
    sys.exit(main())
