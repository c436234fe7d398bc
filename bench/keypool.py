"""Run a list of `lgpk` CLI commands in a fresh process: the cold-CLI key pool.

Usage: python3 bench/keypool.py COMMANDS.json [--trace]

COMMANDS.json holds a list of argument lists for `lgpk.cli.main`. The
cold-CLI workload makes its keys and the ciphertexts its decrypt commands
read here, so the measuring process has never touched a key before the
command that uses it, as with separate `lgpk` invocations. With --trace the
last stdout line holds the per-function counters of the whole build; without
it, an empty JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import checkout


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-") or set(argv[1:]) - {"--trace"}:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        checkout.import_lgpk()
    except checkout.CheckoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from lgpk import cli

    import tracer

    commands = json.loads(Path(argv[0]).read_text())
    t = tracer.Tracer()
    if "--trace" in argv[1:]:
        t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(cmd) for cmd in commands]
    finally:
        t.uninstall()
    failed = [cmd for cmd, rc in zip(commands, codes) if rc != 0]
    if failed:
        print(f"error: {len(failed)} command(s) failed, first: {failed[0]}", file=sys.stderr)
        return 1
    print(json.dumps(t.snapshot() if "--trace" in argv[1:] else {}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
