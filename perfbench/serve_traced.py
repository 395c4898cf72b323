"""Launch the ``repro serve`` daemon with the benchmark's timing shims.

    python3 perfbench/serve_traced.py --socket PATH --trace-out FILE

Imports ``repro``, installs the shims from :mod:`tracer` around the
layer entry points, and calls :func:`repro.service.server.serve_forever`.
When the daemon shuts down (the ``shutdown`` op or SIGTERM) the spans
it recorded are written to FILE as Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.service.server import serve_forever  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    spans = tracer.Tracer()
    with tracer.installed(spans):
        try:
            return serve_forever(args.socket)
        finally:
            spans.write_chrome(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
