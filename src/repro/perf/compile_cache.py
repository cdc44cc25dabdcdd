"""Content-addressed two-level cache for compiled forward kernels.

Modeled on Aesara's ``ModuleCache`` / PyTensor's numba linker: compiled
artifacts are addressed purely by *content* — what they compute — never
by identity, so every process that lowers the same model structure lands
on the same key.  Two levels, two lifetimes:

* **source level** (keyed by :func:`structure_key` — the lowered
  program's structural signature plus the backend name): the generated
  kernel *source text*.  Structure outlives weights, so this level is
  shared on disk between processes (distributed workers, forked pools,
  repeat CLI runs) via lock-free atomic JSON files.
* **kernel level** (keyed by :func:`kernel_key` — structure plus the
  content fingerprint of every bound constant plus the model's weight
  version): the *bound callable*.  Closures over live weight arrays are
  process-local by nature, so this level is an in-memory LRU only.

A weight update (optimizer step, re-quantization) changes the kernel key
— the stale closure is simply never addressed again — while the source
entry keeps serving, so the re-compile costs one ``exec`` rather than a
fresh codegen pass.  Hits and misses are mirrored to the metrics
registry as ``backend_cache_{hits,misses}_total{level=memory|disk}``,
matching the ``cache_*_total`` convention of :mod:`repro.perf.cache`.

The disk directory defaults to ``~/.cache/repro/kernels`` and is
overridden (or disabled, with an empty value) by
``REPRO_COMPILE_CACHE_DIR``.  Disk writes go through tmp-file +
``os.replace`` so concurrent writers at worst do duplicate work, never
serve a torn file; stored entries carry the full structural signature
and are validated against it on load, so a hash collision or truncated
payload degrades to a re-generation, not a wrong kernel.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path

from ..obs import get_logger, get_metrics
from .cache import array_fingerprint

__all__ = [
    "CompileCache",
    "get_compile_cache",
    "kernel_key",
    "structure_key",
]

#: bumped whenever codegen emits different source for an unchanged signature
_FORMAT_VERSION = 3
_ENV_DIR = "REPRO_COMPILE_CACHE_DIR"
_DEFAULT_DIR = Path.home() / ".cache" / "repro" / "kernels"


def structure_key(signature: str, backend: str) -> str:
    """Content address of a generated source: program structure + backend."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(backend.encode())
    digest.update(b"\x00")
    digest.update(signature.encode())
    return digest.hexdigest()


def kernel_key(
    signature: str,
    backend: str,
    constants,
    weight_version: int,
) -> str:
    """Content address of a bound kernel.

    Includes the fingerprint of every bound array (two same-shaped models
    with different weights must not collide in a shared cache) *and* the
    weight version counter, the cheap signal optimizer steps bump.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(structure_key(signature, backend).encode())
    digest.update(f"|v{weight_version}".encode())
    for name, value in constants:
        digest.update(f"|{name}=".encode())
        fingerprint, shape, dtype = array_fingerprint(value)
        digest.update(f"{fingerprint}:{shape}:{dtype}".encode())
    return digest.hexdigest()


def _resolve_directory(directory) -> "Path | None":
    if directory is not None:
        return Path(directory) if directory else None
    env = os.environ.get(_ENV_DIR)
    if env is not None:
        return Path(env) if env else None
    return _DEFAULT_DIR


class CompileCache:
    """Two-level (memory kernel LRU + disk source store) compile cache.

    ``directory=None`` (the default) resolves via ``REPRO_COMPILE_CACHE_DIR``
    falling back to ``~/.cache/repro/kernels``; pass ``directory=""`` for a
    memory-only cache (tests, read-only filesystems).
    """

    def __init__(self, directory=None, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.directory = _resolve_directory(directory)
        self.maxsize = maxsize
        self._kernels: OrderedDict = OrderedDict()
        self._sources: dict = {}
        self._lock = threading.RLock()
        self.stats = {
            "kernel_hits": 0,
            "kernel_misses": 0,
            "source_memory_hits": 0,
            "source_disk_hits": 0,
            "source_disk_misses": 0,
            "source_generated": 0,
        }

    def _publish_hit_ratios(self) -> None:
        """Mirror per-level hit ratios as gauges (ops-plane visibility)."""
        metrics = get_metrics()
        if not metrics.enabled:
            return
        hits, misses = self.stats["kernel_hits"], self.stats["kernel_misses"]
        if hits + misses:
            metrics.gauge("backend_cache_hit_ratio", level="memory").set(
                hits / (hits + misses)
            )
        disk_hits = self.stats["source_disk_hits"]
        disk_misses = self.stats["source_disk_misses"]
        if disk_hits + disk_misses:
            metrics.gauge("backend_cache_hit_ratio", level="disk").set(
                disk_hits / (disk_hits + disk_misses)
            )

    # -- kernel level (in-memory LRU of bound callables) ---------------

    def get_kernel(self, key: str):
        """The bound callable for ``key``, or ``None`` on a miss."""
        with self._lock:
            kernel = self._kernels.get(key)
            if kernel is not None:
                self._kernels.move_to_end(key)
                self.stats["kernel_hits"] += 1
                get_metrics().counter("backend_cache_hits_total", level="memory").inc()
                self._publish_hit_ratios()
                return kernel
            self.stats["kernel_misses"] += 1
            get_metrics().counter("backend_cache_misses_total", level="memory").inc()
            self._publish_hit_ratios()
            return None

    def put_kernel(self, key: str, kernel) -> None:
        with self._lock:
            self._kernels[key] = kernel
            self._kernels.move_to_end(key)
            while len(self._kernels) > self.maxsize:
                self._kernels.popitem(last=False)

    # -- source level (memory dict + disk JSON per structure) ----------

    def get_source(self, key: str, signature: str, backend: str) -> "str | None":
        """Cached generated source for a program structure, or ``None``.

        The stored signature is compared against the caller's: a digest
        collision or corrupt file reads as a miss, never a wrong kernel.
        """
        with self._lock:
            source = self._sources.get(key)
        if source is not None:
            self.stats["source_memory_hits"] += 1
            return source
        source = self._load_disk(key, signature, backend)
        if source is not None:
            with self._lock:
                self._sources[key] = source
            self.stats["source_disk_hits"] += 1
            get_metrics().counter("backend_cache_hits_total", level="disk").inc()
            self._publish_hit_ratios()
            return source
        if self.directory is not None:
            self.stats["source_disk_misses"] += 1
            get_metrics().counter("backend_cache_misses_total", level="disk").inc()
            self._publish_hit_ratios()
        return None

    def put_source(self, key: str, signature: str, backend: str, source: str) -> None:
        with self._lock:
            self._sources[key] = source
        self.stats["source_generated"] += 1
        self._store_disk(key, signature, backend, source)

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _load_disk(self, key: str, signature: str, backend: str) -> "str | None":
        if self.directory is None:
            return None
        path = self._entry_path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != _FORMAT_VERSION
            or entry.get("signature") != signature
            or entry.get("backend") != backend
            or not isinstance(entry.get("source"), str)
        ):
            return None
        return entry["source"]

    def _store_disk(self, key: str, signature: str, backend: str, source: str) -> None:
        if self.directory is None:
            return
        entry = {
            "version": _FORMAT_VERSION,
            "signature": signature,
            "backend": backend,
            "source": source,
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self._entry_path(key)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(entry))
            os.replace(tmp, path)
        except OSError as exc:  # read-only/full filesystem: memory still serves
            get_logger().warning(
                "compile cache disk write failed", path=str(self.directory), error=str(exc)
            )

    # -- maintenance ---------------------------------------------------

    def clear(self, *, disk: bool = False) -> None:
        """Drop in-memory entries; with ``disk=True`` also unlink disk files."""
        with self._lock:
            self._kernels.clear()
            self._sources.clear()
        if disk and self.directory is not None:
            try:
                for path in self.directory.glob("*.json"):
                    path.unlink(missing_ok=True)
            except OSError:
                pass

    def __len__(self) -> int:
        return len(self._kernels)


_CACHE: "CompileCache | None" = None
_CACHE_LOCK = threading.Lock()


def get_compile_cache() -> CompileCache:
    """The process-global compile cache (created lazily)."""
    global _CACHE
    with _CACHE_LOCK:
        if _CACHE is None:
            _CACHE = CompileCache()
        return _CACHE


def reset_compile_cache() -> None:
    """Drop the process-global cache so the next access re-reads the env.

    Test seam: ``REPRO_COMPILE_CACHE_DIR`` changes only take effect on a
    fresh singleton.
    """
    global _CACHE
    with _CACHE_LOCK:
        _CACHE = None
