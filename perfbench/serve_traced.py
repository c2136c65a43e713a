"""Run ``repro-exp serve`` with the benchmark's span wrappers installed.

Usage: ``main([parts_dir, "serve", ...])``.  The wrappers are the same
ones a traced campaign uses (store, models); the server runs through
the normal CLI entry point, and when it has drained and returned, its
spans are written once, as a part file in ``parts_dir``.
"""

from __future__ import annotations

from typing import List

from . import layers
from .spans import Patcher, Recorder, write_part


def main(argv: List[str]) -> int:
    parts_dir, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    patcher = Patcher(recorder)
    layers.install(patcher)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        patcher.restore()
        write_part(parts_dir, recorder.records)
