"""Run one sic-forge command with span tracing on, then save its spans.

The cli workload's traced passes start this script where the plain passes
start ``python -m sic_forge.cli``:

    python3 bench/cli_child.py SPANS_PATH OP_ID <sic-forge arguments>

It exits with the command's own exit code.
"""

from __future__ import annotations

import sys

from sic_forge import cli
from tracing import Tracer


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    with tracer.op(op_id):
        code = cli.main(argv)  # the attribute is the wrapped binding now
    tracer.uninstall()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
