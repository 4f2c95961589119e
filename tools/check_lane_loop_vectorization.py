#!/usr/bin/env python3
"""Checks that GCC vectorizes every shared lane loop each x86 ISA table uses.

The AVX2 and AVX-512 kernel tables point most entries at the plain loops of
src/vm/lane_loops.h and rely on the compiler to vectorize them under the
TU's target flags. This script recompiles those two TUs with exactly the
flags a build uses (read from its compile_commands.json, so configure with
-DCMAKE_EXPORT_COMPILE_COMMANDS=ON) plus -fopt-info-vec-optimized, and fails
unless the loop of every LaneLoops member a table references is reported
vectorized. It compiles to /dev/null and builds nothing else.

Usage: check_lane_loop_vectorization.py BUILD_DIR [BUILD_DIR ...]
"""
import json
import pathlib
import re
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEADER = ROOT / "src" / "vm" / "lane_loops.h"
ISA_TUS = ("simd_kernels_avx2.cpp", "simd_kernels_avx512.cpp")


def loop_lines():
    """LaneLoops member name -> line of the `for` that is its lane loop."""
    lines = HEADER.read_text().splitlines()
    member = re.compile(r"^  static [\w:]+\*? (\w+)\(")
    loops = {}
    current = None
    for number, line in enumerate(lines, start=1):
        m = member.match(line)
        if m:
            current = m.group(1)
        elif current and line.lstrip().startswith("for ("):
            loops[current] = number
            current = None
    return loops


def shared_entries(tu):
    """Entries the TU's table takes from LaneLoops (as `Loops::name`)."""
    return sorted(set(re.findall(r"\bLoops::(\w+)", tu.read_text())))


def compile_command(build_dir, tu):
    db = json.loads((build_dir / "compile_commands.json").read_text())
    for entry in db:
        if pathlib.Path(entry["file"]).name == tu:
            args = entry.get("arguments") or shlex.split(entry["command"])
            return entry["directory"], args
    return None, None


def vectorized_lines(directory, args):
    """Header lines GCC reports as vectorized loops for this compile."""
    out = []
    skip = False
    for arg in args:
        if skip:
            skip = False
            continue
        if arg == "-o":
            skip = True
            continue
        out.append(arg)
    out += ["-o", "/dev/null", "-fopt-info-vec-optimized"]
    result = subprocess.run(out, cwd=directory, capture_output=True,
                            text=True, check=False)
    if result.returncode != 0:
        sys.exit(f"compile failed:\n{' '.join(out)}\n{result.stderr}")
    pattern = re.compile(r"lane_loops\.h:(\d+):\d+: optimized: loop vectorized")
    report = result.stdout + result.stderr
    return {int(m.group(1)) for m in pattern.finditer(report)}


def main(build_dirs):
    if not build_dirs:
        sys.exit(__doc__)
    loops = loop_lines()
    failures = 0
    for build_dir in map(pathlib.Path, build_dirs):
        for tu in ISA_TUS:
            directory, args = compile_command(build_dir, tu)
            if args is None:
                print(f"FAIL {build_dir}: {tu} is not in compile_commands.json")
                failures += 1
                continue
            entries = shared_entries(ROOT / "src" / "vm" / tu)
            done = vectorized_lines(directory, args)
            for name in entries:
                if name not in loops:
                    print(f"FAIL {tu}: Loops::{name} has no loop in "
                          f"{HEADER.name}")
                    failures += 1
                elif loops[name] not in done:
                    print(f"FAIL {build_dir}: {tu} Loops::{name} "
                          f"({HEADER.name}:{loops[name]}) not vectorized")
                    failures += 1
            print(f"{build_dir}: {tu}: {len(entries)} shared loops checked")
    if failures:
        sys.exit(f"{failures} shared lane loop(s) not vectorized")
    print("every shared lane loop is vectorized")


if __name__ == "__main__":
    main(sys.argv[1:])
