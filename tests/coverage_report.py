#!/usr/bin/env python3
"""Print how many lines of each src/**/*.cpp never ran, from gcov data.

    tests/coverage_report.py BUILD_DIR

BUILD_DIR is a tree configured with --coverage (Debug, -O0) whose test and
bench binaries have already run, so every library object has a .gcda file
next to it. A line counts as never run when gcov marks it #####; lines
marked ===== (code on exception cleanup paths only) are left out. Template
functions count once per instantiation, so an element type no test uses
shows up as its own lines.

The report is informational: it exits 0 whatever the counts are.
"""
import pathlib
import subprocess
import sys
import tempfile


def never_run(gcov_text, source):
    """Never-run line count of `source` ("src/<lib>/<file>.cpp") in one
    `gcov --stdout` output, which also covers the headers it includes."""
    count = 0
    in_source = False
    for line in gcov_text.splitlines():
        parts = line.split(":", 2)
        if len(parts) < 3:
            continue
        if parts[1].strip() == "0" and parts[2].startswith("Source:"):
            path = parts[2][len("Source:"):]
            in_source = path == source or path.endswith("/" + source)
            continue
        if in_source and parts[0].strip() == "#####":
            count += 1
    return count


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: coverage_report.py BUILD_DIR")
    build = pathlib.Path(sys.argv[1]).resolve()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for gcda in sorted((build / "src").rglob("*.cpp.gcda")):
            # .../src/<lib>/CMakeFiles/<target>.dir/<file>.cpp.gcda
            lib = gcda.relative_to(build / "src").parts[0]
            source = f"src/{lib}/{gcda.name[:-len('.gcda')]}"
            out = subprocess.run(
                ["gcov", "--stdout", str(gcda)], cwd=tmp, check=True,
                capture_output=True, text=True).stdout
            rows.append((source, never_run(out, source)))
    if not rows:
        sys.exit(f"no .gcda files under {build / 'src'}: run the tests first")
    width = max(len(name) for name, _ in rows)
    for name, n in sorted(rows, key=lambda r: (-r[1], r[0])):
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(n for _, n in rows):5d}")


if __name__ == "__main__":
    main()
