#!/usr/bin/env python3
"""Fail on command-line flags the documentation names but no command declares.

Usage: scripts/check_flags.py SRC_DIR FILE.md [FILE.md ...]

Every inline code span that starts with `--flag` in the markdown files
(fenced code blocks are skipped) must name a flag that some C++ source
under SRC_DIR declares with add_option("flag", ...) or
add_flag("flag", ...). Exit code 1 lists every undeclared flag; 0 means
all of them are declared.
"""
import os
import re
import sys

FENCED = re.compile(r"^```.*?^```", re.S | re.M)
SPAN = re.compile(r"`([^`\n]+)`")
FLAG = re.compile(r"--([a-z0-9][a-z0-9-]*)")
DECLARED = re.compile(r'add_(?:option|flag)\(\s*"([a-z0-9][a-z0-9-]*)"')


def declared_flags(src_dir):
    flags = set()
    for root, _, files in os.walk(src_dir):
        for name in files:
            if name.endswith((".cpp", ".h")):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    flags.update(DECLARED.findall(fh.read()))
    return flags


def main(src_dir, paths):
    declared = declared_flags(src_dir)
    named = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = FENCED.sub("", fh.read())
        for span in SPAN.findall(text):
            flag = FLAG.match(span)
            if flag:
                named.setdefault(flag.group(1), path)
    missing = sorted(f for f in named if f not in declared)
    if missing:
        print("documented flags no command declares:")
        for flag in missing:
            print(f"  --{flag} ({named[flag]})")
        return 1
    print(f"check_flags: {len(named)} documented flags across {len(paths)} files, "
          "all declared")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        print(__doc__.strip())
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2:]))
