#!/usr/bin/env python3
"""Save a suite trace with trace_tool, reload it, and compare the runs.

Usage: trace_tool_roundtrip.py <trace_tool> <work-dir>

Generates loop_thrash and saves it as a GPTR file, then profiles the
saved file.  The file must carry version 3 and the generated record
count, and the reloaded run must print the same profile as the
generating run: accesses, instructions, writes, footprint and every
table line after them.
"""

import os
import struct
import subprocess
import sys


def profile(cmd):
    """stdout of @p cmd from its 'accesses:' line on."""
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("accesses:"))
    return lines[start:]


def field(lines, name):
    return next(line for line in lines if line.startswith(name + ":"))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "loop_thrash.gptr")
    generated = profile([binary, "loop_thrash", "--save", path])
    with open(path, "rb") as f:
        magic, version, count = struct.unpack("<4sIQ", f.read(16))
    reloaded = profile([binary, path])
    os.remove(path)

    failed = False
    if (magic, version) != (b"GPTR", 3):
        print(f"trace_tool_roundtrip: header {magic!r} v{version}, "
              "want GPTR v3")
        failed = True
    accesses = int(field(generated, "accesses").split()[1])
    if count != accesses:
        print(f"trace_tool_roundtrip: file holds {count} records, "
              f"the run generated {accesses}")
        failed = True
    for name in ("accesses", "writes", "footprint"):
        print(f"generated {field(generated, name)!r}, "
              f"reloaded {field(reloaded, name)!r}")
    if generated != reloaded:
        print("trace_tool_roundtrip: the reloaded profile differs")
        failed = True
    if failed:
        return 1
    print("trace_tool_roundtrip: saved v3 file reloads to the same "
          "profile")
    return 0


if __name__ == "__main__":
    sys.exit(main())
