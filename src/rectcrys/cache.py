"""Single-file key-value cache for computed Kostka polynomials.

Entries live in one JSON file keyed by (n, lambda, rects); a schema version
field invalidates every prior entry when bumped.  Unreadable or mismatched
files are ignored and overwritten, never trusted.  Processes may share the
file: a write merges with what is on disk under a lock, so no writer drops
another's entries.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
import tempfile

from .laurent import LaurentPolynomial

SCHEMA_VERSION = 1
ENV_CACHE_DIR = "RECTCRYS_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "rectcrys")


def cache_key(n: int, lam, rects) -> str:
    return json.dumps(
        [int(n), [int(x) for x in lam], [[int(a), int(b)] for a, b in rects]],
        separators=(",", ":"),
    )


class PolynomialCache:
    """Write-once polynomial store backed by one JSON file."""

    def __init__(self, directory: str | None = None, enabled: bool = True):
        self.enabled = enabled
        self.directory = directory or default_cache_dir()
        self.path = os.path.join(self.directory, "kpoly.json")
        self._entries: dict[str, dict] = {}
        if self.enabled:
            self._entries = self._read()

    def _read(self) -> dict[str, dict]:
        """The entries in the file now; none when it is missing, unreadable
        or of another schema."""
        try:
            with open(self.path) as fh:
                data = json.load(fh)
            if data.get("schema") != SCHEMA_VERSION:
                return {}
            entries = data.get("entries", {})
            if not isinstance(entries, dict):
                raise ValueError("entries must be a map")
            return entries
        except FileNotFoundError:
            return {}
        except (ValueError, OSError, AttributeError) as exc:
            print(f"cache unreadable, recomputing: {exc}", file=sys.stderr)
            return {}

    def get(self, key: str) -> LaurentPolynomial | None:
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is None:
            return None
        try:
            return LaurentPolynomial.from_json(entry)
        except (KeyError, ValueError, TypeError) as exc:
            print(f"corrupt cache entry for {key}: {exc}", file=sys.stderr)
            self._entries.pop(key, None)
            return None

    def put(self, key: str, poly: LaurentPolynomial) -> None:
        if not self.enabled or key in self._entries:
            return
        self._entries[key] = poly.to_json()
        self._flush()

    def _flush(self) -> None:
        """Merge the entries into the file's current ones and replace it
        atomically, holding an exclusive lock on a sibling file from the
        read to the replace."""
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(self.path + ".lock", "w") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                self._entries = {**self._read(), **self._entries}
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
                with os.fdopen(fd, "w") as fh:
                    json.dump({"schema": SCHEMA_VERSION, "entries": self._entries}, fh)
                os.replace(tmp, self.path)
        except OSError as exc:
            print(f"cache write failed, continuing: {exc}", file=sys.stderr)
