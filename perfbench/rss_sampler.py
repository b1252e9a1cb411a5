"""Child process that samples another process's resident set size.

    python3 rss_sampler.py <pid> <interval seconds>

Reads /proc/<pid>/statm every interval. Each line on stdin is a command
that gets one line of reply: "reset" starts a new window ("ok"), "stats"
replies "<peak> <mean>", the largest and the mean sample in bytes since
the last reset. It exits when stdin closes. Sampling from another
process keeps the sampler off the measured process's interpreter lock.
"""

import os
import select
import sys


def main():
    pid, interval = int(sys.argv[1]), float(sys.argv[2])
    page = os.sysconf("SC_PAGE_SIZE")
    fd = sys.stdin.fileno()
    pending = b""
    with open(f"/proc/{pid}/statm", "rb") as statm:

        def sample():
            statm.seek(0)
            return int(statm.read().split()[1]) * page

        def restart():
            rss = sample()
            return rss, rss, 1

        peak, total, count = restart()
        while True:
            ready, _, _ = select.select([fd], [], [], interval)
            rss = sample()
            peak, total, count = max(peak, rss), total + rss, count + 1
            if not ready:
                continue
            chunk = os.read(fd, 256)
            if not chunk:
                return
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                if line == b"reset":
                    peak, total, count = restart()
                    reply = "ok"
                elif line == b"stats":
                    reply = f"{peak} {total / count}"
                else:
                    reply = f"error: unknown command {line!r}"
                sys.stdout.write(reply + "\n")
                sys.stdout.flush()


if __name__ == "__main__":
    main()
