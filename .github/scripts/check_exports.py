#!/usr/bin/env python3
"""No export without a reader.

Usage: check_exports.py REPO_ROOT

Fails, naming each one, on every `val` of `lib/**/*.mli` whose name
appears as a word in no `.ml` outside its own module.  The search
covers lib/, bin/, bench/, perfbench/, examples/ and test/.  A value
used only inside its own module belongs in the `.ml` alone; a value
used nowhere belongs nowhere.

The check is word-level: a name counts as read wherever it appears
as an identifier-shaped word, in code, comments or strings alike.  So
it cannot see an export that only its own tests reach, nor one whose
name (say `add`) another module also uses for something else.  It
catches the export that no other file so much as names.
"""
import glob
import os
import re
import sys

VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
SEARCHED = ("lib", "bin", "bench", "perfbench", "examples", "test")


def main(root):
    readers = {}
    for top in SEARCHED:
        pattern = os.path.join(root, top, "**", "*.ml")
        for path in glob.glob(pattern, recursive=True):
            with open(path) as f:
                for word in set(WORD.findall(f.read())):
                    readers.setdefault(word, set()).add(os.path.abspath(path))
    unread = []
    for mli in sorted(glob.glob(os.path.join(root, "lib", "**", "*.mli"), recursive=True)):
        own = os.path.abspath(mli[:-1])
        module = os.path.basename(mli)[:-4].capitalize()
        with open(mli) as f:
            for name in VAL.findall(f.read()):
                if not readers.get(name, set()) - {own}:
                    unread.append(f"{module}.{name} ({os.path.relpath(mli, root)})")
    if unread:
        for entry in unread:
            print(f"check_exports: FAIL: no .ml outside its module names {entry}",
                  file=sys.stderr)
        sys.exit(1)
    print("check_exports: ok")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
