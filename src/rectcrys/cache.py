"""On-disk cache of computed Kostka polynomials, one JSON file per entry.

An entry's file is named by its key, (n, lambda, sorted rects), in a
directory named by the schema version, so a bump leaves every prior entry
unread.  A key too long for a file name is stored under its SHA-256 digest
instead, and that entry holds the full key, which a read checks.  An
unreadable or malformed entry is reported and recomputed, never trusted.
Processes may share the directory: each write goes to a temporary file of
the writer's own, renamed over the entry, so no writer tears or drops
another's entry.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

from .laurent import LaurentPolynomial

SCHEMA_VERSION = 2
ENV_CACHE_DIR = "RECTCRYS_CACHE_DIR"
# The longest key that names its own entry: with ".json" and a writer's
# ".<pid>.tmp" its file names stay well inside the usual 255-byte limit.
MAX_NAMED_KEY = 200


def default_cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    # the XDG Base Directory spec ignores an empty or relative XDG_CACHE_HOME
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser("~/.cache")
    return os.path.join(base, "rectcrys")


def cache_key(n: int, lam, rects) -> str:
    """The key of (n, lambda, R), with the rectangles sorted, and up to
    MAX_NAMED_KEY characters its entry's file name: K_{lambda;R}(q) does
    not depend on the order of R, so every order shares one entry.  n = 3,
    lambda = (2, 1), R = (1x1)^3 is ``3_2.1_1x1.1x1.1x1``."""
    rects = ".".join(f"{a}x{b}" for a, b in sorted((int(a), int(b)) for a, b in rects))
    return f"{int(n)}_{'.'.join(str(int(x)) for x in lam)}_{rects}"


def _entry_name(key: str) -> str:
    """The file name, less ".json", of the entry of ``key``: the key itself,
    or past MAX_NAMED_KEY characters a fixed-length digest of it."""
    if len(key) <= MAX_NAMED_KEY:
        return key
    import hashlib

    return "sha256-" + hashlib.sha256(key.encode()).hexdigest()


class PolynomialCache:
    """Polynomial store, one JSON file per entry."""

    def __init__(self, directory: str | None = None):
        # the entry directory; perfbench's tracer stats it around each put
        self.path = os.path.join(directory or default_cache_dir(), f"kpoly-v{SCHEMA_VERSION}")

    def get(self, key: str) -> LaurentPolynomial | None:
        name = _entry_name(key)
        try:
            with open(os.path.join(self.path, name + ".json")) as fh:
                data = json.load(fh)
            # a digest-named entry holds its key: a read never trusts the name
            if name != key and data["key"] != key:
                raise ValueError(f"entry holds another key, {data['key']!r:.40}")
            return LaurentPolynomial.from_json(data)
        except FileNotFoundError:
            return None
        except OSError as exc:
            print(f"cache unreadable, recomputing: {exc}", file=sys.stderr)
        except (KeyError, ValueError, TypeError) as exc:
            print(f"corrupt cache entry for {key}: {exc}", file=sys.stderr)
        return None

    def put(self, key: str, poly: LaurentPolynomial) -> None:
        name = _entry_name(key)
        entry = os.path.join(self.path, name + ".json")
        tmp = f"{entry}.{os.getpid()}.tmp"
        data = poly.to_json() if name == key else {"key": key, **poly.to_json()}
        try:
            os.makedirs(self.path, exist_ok=True)
            with open(tmp, "w") as fh:
                json.dump(data, fh)
            os.replace(tmp, entry)
        except OSError as exc:
            print(f"cache write failed, continuing: {exc}", file=sys.stderr)
            with contextlib.suppress(OSError):
                os.remove(tmp)
