"""Run one riskshare CLI command under the tracer, in a fresh interpreter.

Usage: python perfbench/tracedcli.py <cli arguments...>

Stdout and the exit code are the command's own.  The span summary is the
last line of stderr; the spans themselves go to the file named by
$BENCH_SPANS.
"""

import json
import os
import sys

import riskshare.cli

import spans


def main():
    with spans.Tracer() as tracer:
        code = riskshare.cli.run(sys.argv[1:])
    sys.stdout.flush()
    tracer.write(os.environ["BENCH_SPANS"])
    sys.stderr.write("\n" + json.dumps(tracer.summary()) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
