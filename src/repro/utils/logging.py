"""Logging helpers.

The library logs through the standard :mod:`logging` package under the
``repro`` namespace and never configures handlers on import, so applications
stay in control of their logging setup.  :func:`configure_basic_logging` is a
convenience for scripts and the CLI.
"""

from __future__ import annotations

import logging


def configure_basic_logging(level: int = logging.INFO) -> None:
    """Configure a simple stderr handler for scripts and the CLI."""
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s: %(message)s",
        datefmt="%H:%M:%S",
    )
