"""Run ``porcupine serve`` with the benchmark's span wrappers installed.

    python benchmarks/suite/traced_server.py --trace-out FILE serve [ARGS]

``ARGS`` are the ``porcupine serve`` arguments; the ``repro`` CLI entry
point runs unchanged.  Tracing starts on, so boot-time precompiles and
tape pinning are recorded; SIGUSR1 turns it on and SIGUSR2 off.  The
spans are written to ``FILE`` as JSON lines when the server exits.
"""

from __future__ import annotations

import signal
import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    out, serve_args = argv[1], argv[2:]
    from repro.__main__ import main as cli_main

    tracer = Tracer(process="server")
    install(tracer)
    tracer.enabled = True
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    try:
        return cli_main(serve_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
