"""Content-addressed on-disk cache for command results.

An entry is named by ``importlib.util.source_hash`` (the 64-bit hash behind
hash-based ``.pyc`` files, which needs no OpenSSL) of its key text: the
command, its canonical parameters and the same hash of the package's
sources.  The entry keeps that text beside its payload, and a load whose
stored key differs is a miss, so two requests sharing a name never serve
each other's payload.  The hash depends on the interpreter's bytecode
version, so entries are not shared across Python versions.  Payloads are
JSON in the order they were built, so a hit renders the same bytes as the
miss that stored it.  Writes go through a temporary file and an atomic
rename, so concurrent identical jobs race benignly.  Corrupt entries are
recomputed, and a cache that cannot be read or written is skipped, each
with a one-line warning.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
from functools import lru_cache
from importlib.util import source_hash

ENV_VAR = "PARTHOM_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "parthom")


@lru_cache(maxsize=None)
def code_hash() -> str:
    """Source hash of the NUL-separated names and contents of the package's
    ``*.py`` sources, read once per process."""
    return source_hash(b"".join(
        path.name.encode() + b"\0" + path.read_bytes() + b"\0"
        for path in sorted(pathlib.Path(__file__).parent.glob("*.py")))).hex()


def _key_text(command: str, params: dict) -> str:
    return json.dumps(
        {"code": code_hash(), "command": command, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )


def cache_key(command: str, params: dict) -> str:
    """Name of the entry of a request: the source hash of its key text."""
    return source_hash(_key_text(command, params).encode()).hex()


def _path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key[:2], key + ".json")


def load(cache_dir: str | None, command: str, params: dict):
    """Cached payload or None; corrupt entries are dropped with a warning."""
    if not cache_dir:
        return None
    path = _path(cache_dir, cache_key(command, params))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (FileNotFoundError, NotADirectoryError):
        # no entry; a cache directory that is not one is reported by the store
        return None
    except ValueError as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        try:
            os.unlink(path)
        except OSError:
            pass
        return None
    except OSError as exc:
        print(f"warning: cannot read cache entry {path}: {exc}", file=sys.stderr)
        return None
    # an entry of another request under the same name, or of another layout
    if not isinstance(entry, dict) or entry.get("key") != _key_text(command, params):
        return None
    return entry.get("payload")


def store(cache_dir: str | None, command: str, params: dict, payload) -> None:
    if not cache_dir:
        return
    path = _path(cache_dir, cache_key(command, params))
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"key": _key_text(command, params), "payload": payload}, fh, indent=2)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        print(f"warning: cannot write cache entry {path}: {exc}", file=sys.stderr)
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
