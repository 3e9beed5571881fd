"""Run one program process and report its wall time and resource usage.

    python3 -S perfbench/launch.py ARG...

runs ``python ARG...`` with the inherited environment, kills it after
``TIMEOUT_S`` seconds, and prints one JSON object: return code, stdout,
stderr, wall seconds, CPU seconds and peak RSS.

The driver starts its program processes through this small launcher because
Linux carries a parent's peak RSS into a child started with fork or vfork
(``ru_maxrss`` survives ``exec``): started from the driver itself, which holds
NumPy and mpmath, the child's peak would read as the driver's.
"""

import json
import os
import subprocess
import sys
import threading
import time

# Longest a program process may run; a run must end within 180 s.
TIMEOUT_S = 150.0


def main() -> int:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *sys.argv[1:]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = []
        reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
        reader.start()
        err = proc.stderr.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump({
        "returncode": proc.returncode,
        "stdout": out[0].decode(errors="replace"),
        "stderr": err.decode(errors="replace"),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
