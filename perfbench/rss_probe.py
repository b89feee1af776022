"""Peak memory of one voxeval CLI call in a fresh interpreter.

    python3 perfbench/rss_probe.py '["evaluate", "--manifest", "m.csv", ...]'

Prints one JSON line: the call's exit code, this interpreter's VmRSS just
before the call (voxeval.cli imported, nothing evaluated), its VmHWM after
the call, and the largest ru_maxrss of the worker processes it waited for.
A forked worker's ru_maxrss includes the pages it shares with this process
at fork time, so a worker's own growth is that figure minus the RSS before
the call.
"""

import json
import resource
import sys

import voxeval.cli as cli

from common import status_kb


def main() -> int:
    before_kb = status_kb("VmRSS:")
    code = cli.main(json.loads(sys.argv[1]))
    print(json.dumps({
        "code": code,
        "before_kb": before_kb,
        "hwm_kb": status_kb("VmHWM:"),
        "worker_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
