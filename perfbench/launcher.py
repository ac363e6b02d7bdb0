"""Start ``repro serve`` for the ``serve-mixed`` workload and report totals.

Usage::

    python3 -u perfbench/launcher.py --totals FILE [--trace] -- serve ARGS...

Everything after ``--`` is handed to the library's own command line
(``repro.cli.main``), exactly as ``python -m repro serve ARGS...`` would
receive it.  With ``--trace`` the benchmark's span wrappers are installed
first.  When the server has drained (on ``SIGTERM``) the launcher writes
``FILE``: the server's peak RSS and, when traced, its span totals.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path


def main(argv: list) -> int:
    split = argv.index("--")
    options, serve_args = argv[:split], argv[split + 1:]
    totals = Path(options[options.index("--totals") + 1])
    tracer = None
    if "--trace" in options:
        import spans

        tracer = spans.install_layers(spans.Tracer())
    from release import peak_rss_mb
    from repro.cli import main as cli_main

    code = cli_main(serve_args)
    result = {
        "exit_code": code,
        "peak_rss_mb": peak_rss_mb(),
        "layers": tracer.snapshot() if tracer is not None else None,
    }
    tmp = totals.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, totals)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
