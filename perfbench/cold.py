"""Time a fresh interpreter's ``import phasorfield`` plus its first capture.

usage: python3 perfbench/cold.py ARGV_JSON

ARGV_JSON is the ``phasorfield.cli.main`` argument list.  The last line of
output is ``{"rc": <exit code>, "seconds": <import + capture wall time>}``.
"""

import json
import sys
import time

if __name__ == "__main__":
    argv = json.loads(sys.argv[1])
    start = time.perf_counter()
    import phasorfield.cli
    rc = phasorfield.cli.main(argv)
    print(json.dumps({"rc": rc, "seconds": time.perf_counter() - start}))
