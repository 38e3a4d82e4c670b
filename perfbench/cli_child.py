"""One traced CLI invocation: `python cli_child.py DUMP ARGS...` runs
`calderon.cli.main(ARGS)` with the tracer installed and writes the layer
counters to DUMP as JSON, then exits with the CLI's exit code.  An uncaught
exception still propagates, as it does under `python -m calderon.cli`."""

import json
import sys

from tracer import Tracer

import calderon.cli


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return calderon.cli.main(argv)
    finally:
        tracer.enabled = False
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
