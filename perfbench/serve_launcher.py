"""Start ``repro serve`` with the serving layers wrapped, then write the spans out at exit.

Usage: ``python perfbench/serve_launcher.py SPANS.json serve --port 0 ...``.
The server still runs in its own process and through ``repro.cli.main``;
only the tracer's wrappers are added before it starts.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from layers import install_serving
    from tracing import Tracer

    from repro import cli

    tracer = Tracer()
    install_serving(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
