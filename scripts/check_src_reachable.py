#!/usr/bin/env python3
"""Check that every header under src/ has a caller outside the tests.

Collects every quoted `#include` in src/, bench/, perfbench/ and
examples/, resolving each name against src/ (the include directory the
build gives every target) and then against the including file's own
directory. A header under src/ counts as reached when some file there
includes it, other than its own .cpp (the file of the same name, in the
same directory).

A header that only its own .cpp and the tests include is code that no
program can run: delete it with its .cpp and its tests, or give it a
caller.

Usage: check_src_reachable.py [--repo DIR]
  --repo DIR  repository root (default: the parent of this script's
              directory)
Exits 1, listing every such header, when any header has no caller.
"""

import argparse
import os
import re
import sys

SOURCE_DIR = "src"
CALLER_DIRS = ["src", "bench", "perfbench", "examples"]
CALLER_EXTENSIONS = (".h", ".cpp")

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def files_under(root, extensions):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(extensions):
                yield os.path.join(dirpath, name)


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def included_headers(path, src):
    """The src/ headers that the file at \\p path includes."""
    for name in INCLUDE.findall(read_text(path)):
        for base in (src, os.path.dirname(path)):
            candidate = os.path.normpath(os.path.join(base, name))
            if os.path.isfile(candidate):
                yield candidate
                break


def main():
    default_repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=default_repo)
    args = parser.parse_args()

    src = os.path.join(args.repo, SOURCE_DIR)
    headers = sorted(files_under(src, (".h",)))
    if not headers:
        sys.exit(f"check_src_reachable: no headers found under {src}")
    reached = set()
    for sub in CALLER_DIRS:
        for path in files_under(os.path.join(args.repo, sub),
                                CALLER_EXTENSIONS):
            own = os.path.splitext(path)[0] + ".h"
            for header in included_headers(path, src):
                if not (path.endswith(".cpp") and header == own):
                    reached.add(header)
    unreached = [h for h in headers if h not in reached]
    if unreached:
        print(f"check_src_reachable: {len(unreached)} of {len(headers)} "
              "src/ headers are included by no file under "
              f"{', '.join(d + '/' for d in CALLER_DIRS)} but their own .cpp:")
        for header in unreached:
            print(f"  {os.path.relpath(header, src)}")
        return 1
    print(f"check_src_reachable: all {len(headers)} src/ headers are "
          "included outside their own .cpp and the tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
