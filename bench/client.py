"""The benchmark's client: starts each command and waits for it to end.

Reads one JSON request per line on stdin, ``{"argv", "cwd", "stdout",
"stderr"}``, runs it with stdout and stderr sent to the named files, and
answers with one JSON line ``{"status", "seconds", "rss_kb"}``.

It is a separate small process because Linux carries the memory high-water
mark of the process that starts a program into the program's own peak RSS
(``ru_maxrss``).  Started from this process, which holds no benchmark data,
that floor stays below the size of any smoothwords command, so ``rss_kb`` is
the command's own peak, its ``--jobs`` workers included.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"status": proc.returncode, "seconds": seconds,
                          "rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
