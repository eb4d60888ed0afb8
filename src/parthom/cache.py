"""Content-addressed on-disk cache for command results.

Keys hash the command, its canonical parameters and the package's sources;
payloads are JSON in the order they were built, so a hit renders the same
bytes as the miss that stored it.  Writes go through a temporary file and an
atomic rename, so concurrent identical jobs race benignly: one writes,
both read back identical bytes.  Corrupt entries are ignored with a
warning and recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import tempfile
from functools import lru_cache

ENV_VAR = "PARTHOM_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "parthom")


@lru_cache(maxsize=None)
def code_hash() -> str:
    """sha256 over the NUL-separated names and contents of the package's
    ``*.py`` sources, read once per process."""
    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def cache_key(command: str, params: dict) -> str:
    blob = json.dumps(
        {"code": code_hash(), "command": command, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key[:2], key + ".json")


def load(cache_dir: str | None, command: str, params: dict):
    """Cached payload or None; corrupt entries are dropped with a warning."""
    if not cache_dir:
        return None
    path = _path(cache_dir, cache_key(command, params))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, OSError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def store(cache_dir: str | None, command: str, params: dict, payload) -> None:
    if not cache_dir:
        return
    path = _path(cache_dir, cache_key(command, params))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
