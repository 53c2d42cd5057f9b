"""Launch ``autosva serve`` for the service workload.

``serve_boot.py [--trace FILE] SERVE-ARGS...`` calls the public
``repro.service.server.serve_main`` with SERVE-ARGS.  With ``--trace`` it
first installs the layer wrappers and, once the server has drained after
SIGTERM, writes the spans to FILE.  Measured runs start the server the
same way without ``--trace``, so both differ only in the wrappers.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
        import tracer
        tracer.install(service=True)
    from repro.service.server import serve_main

    code = serve_main(argv)
    if trace_out:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
