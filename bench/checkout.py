"""Locate the checked-out `lgpk` sources and describe the machine and build.

The benchmark measures the package under `src/` of the checkout it sits in.
No copy of `lgpk` is installed, and a stale installed one would silently
measure the wrong commit, so importing from anywhere else is refused.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """`lgpk` cannot be imported from this checkout's `src/`."""


def import_lgpk():
    """Import `lgpk` from `<checkout>/src`, or raise CheckoutError."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import lgpk
    except ImportError as e:
        raise CheckoutError(f"cannot import lgpk from {SRC}: {e}") from e
    resolved = Path(lgpk.__file__).resolve()
    if SRC.resolve() not in resolved.parents:
        raise CheckoutError(f"lgpk resolves to {resolved}, outside {SRC}")
    return lgpk


def child_env() -> dict:
    """Environment for a child interpreter that must import the same `lgpk`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_head() -> str:
    """The checkout's HEAD commit, read from `.git` without running git.

    A checkout exported without `.git` reports "none".
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def machine_info(lgpk) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_head": git_head(),
        "lgpk_file": str(Path(lgpk.__file__).resolve()),
    }
