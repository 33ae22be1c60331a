"""One `deflator` CLI call with its layers traced.

    python3 cli_child.py SPANS_FILE ARG...

Runs what the `deflator ARG...` console script runs, after timing
`import deflator` and wrapping the package's public functions and
`cli.main`; then writes the import time, spans and counts to SPANS_FILE
as JSON and exits with the CLI's exit code.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import deflator  # noqa: E402
import deflator.cli  # noqa: E402
import_s = perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(deflator, extra=[("cli", "main")])
    tracer.op_id = 0
    code = deflator.cli.main(argv)
    sys.stdout.flush()
    spans, counts = tracer.export()
    with open(spans_file, "w") as handle:
        json.dump({"import_s": import_s, "spans": spans, "counts": counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
