#!/usr/bin/env python3
"""Check that a program stops with a fatal error and a given message.

Usage: expect_fatal.py <message> <program> [args...]

Runs the program with the caller's environment and passes when it
exits with a non-zero status (a fatal error aborts the process) and its
stderr contains <message> verbatim; otherwise prints what it saw and
fails.
"""

import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    message, cmd = sys.argv[1], sys.argv[2:]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        print(f"expect_fatal: {cmd[0]} exited 0; expected a fatal error")
        return 1
    if message not in proc.stderr:
        print(f"expect_fatal: stderr lacks {message!r}; it was:")
        print(proc.stderr)
        return 1
    print(f"expect_fatal: {cmd[0]} stopped with {message!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
