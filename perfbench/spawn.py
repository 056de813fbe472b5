"""Start one command, wait for it and print its cost as one JSON object.

    python3 -S perfbench/spawn.py TIMEOUT_S STDOUT_FILE STDERR_FILE -- COMMAND...

The benchmark starts every measured child through this small interpreter
rather than from its own process.  On Linux a child's ``ru_maxrss`` starts
at the peak memory of the process it was exec'd from, so a child started
from the larger benchmark process would report that process's memory.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    timeout, out_path, err_path, sep, *command = argv
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        killer = threading.Timer(float(timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
    json.dump({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "code": proc.returncode,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
