"""``ats serve`` with the benchmark's layer wrappers installed.

Usage: ``python traced_serve.py SPANS_OUT serve [ats serve options]``.
Runs the repository's CLI in this process after wrapping the layer
calls (see ``tracer.install_layer_wrappers``); when the server exits
(SIGTERM drains it), its spans are written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv) -> int:
    from repro.cli import main as cli_main
    from tracer import Tracer, install_layer_wrappers

    out = Path(argv[0])
    # server span ids live in their own range so they never collide
    # with the load generator's when both sets are analysed together
    tracer = Tracer(id_offset=10**9)
    install_layer_wrappers(tracer)
    try:
        return cli_main(argv[1:])
    finally:
        out.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
