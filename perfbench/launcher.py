"""Start ``repro serve`` with the benchmark's span recorder installed.

The traced ``daemon-mix`` run launches the daemon through this file
instead of ``python -m repro``: it wraps the same layer entry points as
the client side (plus the server's request handlers), hands the rest of
the command line to the CLI, and writes the recorded spans to
``--spans`` when the daemon exits.

    python3 perfbench/launcher.py --spans FILE serve --dataset pt ...
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: launcher.py --spans FILE <repro CLI arguments>",
              file=sys.stderr)
        return 2
    from repro.cli import main as cli_main
    from tracer import Tracer

    tracer = Tracer().install(server=True)
    try:
        return cli_main(argv[2:])
    finally:
        tracer.uninstall()
        Path(argv[1]).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
