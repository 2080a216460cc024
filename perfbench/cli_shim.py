"""``luk3`` with the tracer installed, for the traced run of the cli workload.

Usage: python3 cli_shim.py RAW_OUT [luk3 arguments...]

Behaves like the ``luk3`` console script (same exit codes and output) and
writes the tracer's counters and spans to RAW_OUT as JSON.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()

import luk3.cli  # noqa: E402

out = sys.argv[1]
sys.argv = ["luk3"] + sys.argv[2:]
tracer.start(0)
try:
    code = luk3.cli.main()
finally:
    tracer.stop()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"raw": tracer.raw, "spans": tracer.spans}, fh)
sys.exit(code)
