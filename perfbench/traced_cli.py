"""One resodec command-line invocation with spans recorded around the
layer entry points; the spans go to a JSON file when it ends.

    python3 perfbench/traced_cli.py <span file> <resodec arguments...>

Exits with the command's own exit code.
"""

import sys

import resodec.cli
from tracing import Tracer, dump_spans

tracer = Tracer()
tracer.install()
try:
    code = resodec.cli.run(sys.argv[2:])
finally:
    tracer.uninstall()
    dump_spans(tracer.spans, sys.argv[1])
sys.exit(code)
