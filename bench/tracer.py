"""Per-layer call counts and self times, recorded from outside the package.

The layers are the modules of `lgpk`. While a Tracer is installed, each
function it watches is replaced by a timing wrapper in every place the
package can reach it from: the defining module, every `lgpk.*` module that
imported it by name (`from .matfield import mat_mul` makes a second
binding), and the class dict for methods. Uninstalling puts the originals
back, so nothing under `src/` changes.

For a watched function F the tracer records `F.calls` and `F.self_ns`, the
time inside F minus the time inside watched functions F called. Some
functions also record work counts (bytes hashed, pairs searched) through a
small extractor on their arguments and result.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from typing import Callable, Optional


def _arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments.get(
        name, sig.parameters[name].default
    )


def _layer_specs():
    """(module, attribute path, extractor) for every watched function.

    An extractor maps (args, kwargs, result) to extra counters for the call.
    """
    from lgpk import cli, codec, hashsuite

    xof_payload = _arg(hashsuite.xof_bits, "payload")
    decode_offset = _arg(codec.decode_prefix, "offset")
    write_data = _arg(cli.write_atomic, "data")

    def solver(a, k, r):
        return {"pairs": r.ops if r is not None else 0, "found": int(r is not None)}

    return [
        ("matfield", "mat_mul", None),
        ("matfield", "group_mul", None),
        ("matfield", "mat_exp", None),
        ("matfield", "exp_scaled", None),
        ("matfield", "det", None),
        ("matfield", "mat_inv", None),
        ("matfield", "is_nilpotent", None),
        ("matfield", "is_probable_prime", None),
        ("matfield", "canonical_bytes", None),
        ("matfield", "FieldMatrix.__post_init__", None),
        ("matfield", "NilpotentMatrix.__post_init__", None),
        ("matfield", "GroupElement.__post_init__", None),
        ("sampler", "sample_prime", None),
        ("sampler", "sample_nilpotent", None),
        ("sampler", "sample_noncommuting_pair", None),
        ("sampler", "RngHandle.take", lambda a, k, r: {"bytes": len(r)}),
        ("hashsuite", "h1", None),
        ("hashsuite", "h2", None),
        ("hashsuite", "h3", None),
        ("hashsuite", "xof_bits", lambda a, k, r: {"bytes_in": len(xof_payload(a, k))}),
        ("bitstrings", "BitStr.__xor__", None),
        ("codec", "encode", lambda a, k, r: {"bytes_out": len(r)}),
        ("codec", "decode_prefix", lambda a, k, r: {"bytes_in": r[1] - decode_offset(a, k)}),
        ("codec", "pk_fingerprint", None),
        ("scheme", "keygen", None),
        ("scheme", "encrypt", None),
        ("scheme", "decrypt", lambda a, k, r: {"accepted": int(r is not None)}),
        ("cryptanalysis", "naf_bruteforce", solver),
        ("cryptanalysis", "naf_mitm", solver),
        ("cli", "main", None),
        ("cli", "read_file", lambda a, k, r: {"bytes": len(r)}),
        ("cli", "write_atomic", lambda a, k, r: {"bytes": len(write_data(a, k))}),
    ]


def metric_name(module: str, attr: str) -> str:
    """`matfield.FieldMatrix.__post_init__` -> `matfield.FieldMatrix.post_init`."""
    return f"{module}.{attr.replace('__', '')}"


def watched_names() -> list[str]:
    return [metric_name(m, a) for m, a, _ in _layer_specs()]


class Tracer:
    """Aggregated spans for the watched functions; install() / uninstall()."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.extra: Counter = Counter()
        # child time accumulated by each open span; the bottom entry is the root
        self._stack = [0]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, extract: Optional[Callable]) -> Callable:
        calls, self_ns, extra, stack = self.calls, self.self_ns, self.extra, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
            if extract is not None:
                for key, amount in extract(args, kwargs, result).items():
                    extra[f"{name}.{key}"] += amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lgpk" or n.startswith("lgpk."))]
        for module_name, attr, extract in _layer_specs():
            owner = sys.modules[f"lgpk.{module_name}"]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[fn_name]
            wrapper = self._wrap(metric_name(module_name, attr), original, extract)
            if cls_path:
                self._set(owner, fn_name, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, wrapper)
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def snapshot(self) -> dict:
        """Counters by name: `<F>.calls`, `<F>.self_ns` and extractor counts."""
        out = {}
        for name in watched_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ns"] = self.self_ns[name]
        out.update(self.extra)
        return out
