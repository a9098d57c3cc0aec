#!/usr/bin/env python3
"""Count the first-party Rust lines of the workspace.

Usage: python3 ci/loc.py [ROOT] [--by-dir]

Counts every `.rs` file under `crates/`, `src/`, `examples/` and `tests/`
of ROOT (default: the repository this script lives in) and prints three
totals:

- all lines: every line of every counted file;
- non-test lines: the lines left after removing files under a `tests/` or
  `benches/` directory, `#[cfg(test)] mod` blocks, and files reached only
  through a `#[cfg(test)] mod x;` declaration or a `mod x;` inside a
  `#[cfg(test)] mod` block (`#[cfg(doctest)]` and
  `#[cfg(any(test, doctest))]` count as `#[cfg(test)]`: neither reaches
  the library);
- non-test code lines: the non-test lines that are neither blank nor
  `//` comments (`///` and `//!` docs included).

`--by-dir` adds the same three numbers for each crate directory and for
the root `src/`, `examples/` and `tests/` trees. Standard library only.
"""

import os
import re
import sys

TREES = ("crates", "src", "examples", "tests")
TEST_DIRS = {"tests", "benches"}

CFG_TEST = re.compile(r"^\s*#\[cfg\((test|doctest|any\(test,\s*doctest\))\)\]\s*$")
ATTRIBUTE = re.compile(r"^\s*#\[")
PATH_ATTR = re.compile(r'^\s*#\[path\s*=\s*"([^"]+)"\]\s*$')
MOD_BLOCK = re.compile(r"^(\s*)(pub(\([^)]*\))?\s+)?mod\s+\w+\s*\{\s*$")
MOD_NAME = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)")
MOD_DECL = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+(\w+)\s*;\s*$")


def rust_files(root):
    for tree in TREES:
        top = os.path.join(root, tree)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    yield os.path.join(dirpath, name)


def module_dir(path):
    """The directory a file's `mod x;` declarations resolve against."""
    base = os.path.basename(path)
    parent = os.path.dirname(path)
    if base in ("lib.rs", "main.rs", "mod.rs") or os.path.basename(parent) == "bin":
        return parent
    return os.path.join(parent, base[: -len(".rs")])


def scan(path, lines):
    """The indices of the lines in `#[cfg(test)] mod` blocks, and the
    files the file declares as test-only modules."""
    test_lines = set()
    test_files = []
    i = 0
    while i < len(lines):
        if not CFG_TEST.match(lines[i]):
            i += 1
            continue
        start = i
        j = i + 1
        path_attr = None
        while j < len(lines) and ATTRIBUTE.match(lines[j]):
            found = PATH_ATTR.match(lines[j])
            if found:
                path_attr = found.group(1)
            j += 1
        if j >= len(lines):
            break
        block = MOD_BLOCK.match(lines[j])
        decl = MOD_DECL.match(lines[j])
        if block:
            close = block.group(1) + "}"
            end = j + 1
            while end < len(lines) and lines[end].rstrip() != close:
                end += 1
            test_lines.update(range(start, end + 1))
            # `mod y;` inside the block names a file only tests reach.
            inner = os.path.join(module_dir(path), MOD_NAME.match(lines[j]).group(1))
            for line in lines[j + 1 : end]:
                nested = MOD_DECL.match(line)
                if nested:
                    test_files.append(os.path.join(inner, nested.group(3) + ".rs"))
                    test_files.append(os.path.join(inner, nested.group(3), "mod.rs"))
            i = end + 1
            continue
        if decl:
            test_lines.update(range(start, j + 1))
            base = module_dir(path)
            if path_attr:
                test_files.append(os.path.join(os.path.dirname(path), path_attr))
            else:
                name = decl.group(3)
                test_files.append(os.path.join(base, name + ".rs"))
                test_files.append(os.path.join(base, name, "mod.rs"))
        i = j + 1
    return test_lines, test_files


def is_code(line):
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("//")


def in_test_dir(root, path):
    parts = os.path.relpath(path, root).split(os.sep)[:-1]
    return any(part in TEST_DIRS for part in parts)


def group_of(root, path):
    parts = os.path.relpath(path, root).split(os.sep)
    if parts[0] == "crates" and len(parts) > 2:
        return os.path.join(parts[0], parts[1])
    return parts[0]


def count(root):
    files = list(rust_files(root))
    contents = {}
    test_only = set()
    skipped = {}
    for path in files:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        contents[path] = lines
        test_lines, test_files = scan(path, lines)
        skipped[path] = test_lines
        test_only.update(os.path.normpath(p) for p in test_files)
    totals = {}
    for path in files:
        lines = contents[path]
        group = totals.setdefault(group_of(root, path), [0, 0, 0])
        group[0] += len(lines)
        if in_test_dir(root, path) or os.path.normpath(path) in test_only:
            continue
        kept = [line for n, line in enumerate(lines) if n not in skipped[path]]
        group[1] += len(kept)
        group[2] += sum(1 for line in kept if is_code(line))
    return totals


def main(argv):
    by_dir = "--by-dir" in argv
    args = [a for a in argv if a != "--by-dir"]
    if len(args) > 1:
        sys.exit("usage: python3 ci/loc.py [ROOT] [--by-dir]")
    root = args[0] if args else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    totals = count(root)
    if by_dir:
        print(f"{'directory':<20} {'all':>8} {'non-test':>9} {'code':>8}")
        for group in sorted(totals):
            a, n, c = totals[group]
            print(f"{group:<20} {a:>8,} {n:>9,} {c:>8,}")
    all_lines = sum(t[0] for t in totals.values())
    non_test = sum(t[1] for t in totals.values())
    code = sum(t[2] for t in totals.values())
    print(f"all lines: {all_lines:,}")
    print(f"non-test lines: {non_test:,}")
    print(f"non-test code lines: {code:,}")


if __name__ == "__main__":
    main(sys.argv[1:])
