"""Run a command and fail unless it exits 0 within a peak-RSS bound.

    python3 .github/peak_rss.py BOUND_MB -- CMD [ARG...]

Prints the command's exit code and its peak resident set size, which covers
every child process it waited for, and exits 1 if the command exited
non-zero or peaked above BOUND_MB megabytes. Linux only: ``ru_maxrss``
counts KiB there.
"""

import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: peak_rss.py BOUND_MB -- CMD [ARG...]", file=sys.stderr)
        return 2
    bound_mb, command = float(argv[0]), argv[2:]
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024
    print(f"{' '.join(command)} exited {code}; peak RSS {peak_mb:.1f} MB")
    return int(code != 0 or peak_mb > bound_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
