"""On-disk cache of computed Kostka polynomials, one JSON file per entry.

An entry's file is named by its key, (n, lambda, sorted rects), in a
directory named by the schema version, so a bump leaves every prior entry
unread.  An unreadable or malformed entry is reported and recomputed, never
trusted.  Processes may share the directory: each write goes to a temporary
file of the writer's own, renamed over the entry, so no writer tears or
drops another's entry.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

from .laurent import LaurentPolynomial

SCHEMA_VERSION = 2
ENV_CACHE_DIR = "RECTCRYS_CACHE_DIR"


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
    """The entry file name of (n, lambda, R), with the rectangles sorted:
    K_{lambda;R}(q) does not depend on the order of R, so every order shares
    one entry.  n = 3, lambda = (2, 1), R = (1x1)^3 is ``3_2.1_1x1.1x1.1x1``."""
    rects = ".".join(f"{a}x{b}" for a, b in sorted((int(a), int(b)) for a, b in rects))
    return f"{int(n)}_{'.'.join(str(int(x)) for x in lam)}_{rects}"


class PolynomialCache:
    """Polynomial store, one JSON file per entry."""

    def __init__(self, directory: str | None = None):
        # the entry directory; perfbench's tracer stats it around each put
        self.path = os.path.join(directory or default_cache_dir(), f"kpoly-v{SCHEMA_VERSION}")

    def get(self, key: str) -> LaurentPolynomial | None:
        try:
            with open(os.path.join(self.path, key + ".json")) as fh:
                return LaurentPolynomial.from_json(json.load(fh))
        except FileNotFoundError:
            return None
        except OSError as exc:
            print(f"cache unreadable, recomputing: {exc}", file=sys.stderr)
        except (KeyError, ValueError, TypeError) as exc:
            print(f"corrupt cache entry for {key}: {exc}", file=sys.stderr)
        return None

    def put(self, key: str, poly: LaurentPolynomial) -> None:
        entry = os.path.join(self.path, key + ".json")
        tmp = f"{entry}.{os.getpid()}.tmp"
        try:
            os.makedirs(self.path, exist_ok=True)
            with open(tmp, "w") as fh:
                json.dump(poly.to_json(), fh)
            os.replace(tmp, entry)
        except OSError as exc:
            print(f"cache write failed, continuing: {exc}", file=sys.stderr)
            with contextlib.suppress(OSError):
                os.remove(tmp)
