"""Replays one CLI request with the benchmark's wrappers installed.

Usage: python bench/cli_driver.py <spans-file> <op-id> <cli args...>, with
the request on stdin. It times `import parahol.cli`, installs the wrappers,
calls `parahol.cli.main` and writes its spans and counts to <spans-file>.
The exit code is the CLI's.
"""

import json
import sys
from pathlib import Path

import spans


def main():
    out, op = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    tracer = spans.Tracer()
    tracer.op = op
    index = tracer.begin("cli.driver_import")
    import parahol.cli
    tracer.end(index)
    spans.install(tracer)
    root = tracer.begin("bench.op")
    try:
        code = parahol.cli.main(sys.argv[3:])
    finally:
        tracer.end(root)
        sys.stdout.flush()
        Path(out).write_text(json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
