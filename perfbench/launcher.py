"""Child-process launcher for the benchmark.

Started before the benchmark imports numpy, it stays a small interpreter
and runs every child on request. Linux carries a process's peak RSS across
exec, so a child forked straight from the grown benchmark process would
report the benchmark's size instead of its own.

Protocol: one JSON request per stdin line, {"argv": [...], "timeout": s};
one JSON reply per stdout line with wall_s, code, stdout, stderr (base64)
and maxrss_kib of that child alone. Exits when stdin closes.
"""

import base64
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def run(argv, timeout):
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"wall_s": wall, "code": proc.returncode,
                "stdout": base64.b64encode(out.read()).decode(),
                "stderr": base64.b64encode(err.read()).decode(),
                "maxrss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
