"""store — persistent, content-addressed results cache.

The paper's model and simulator are deterministic: a
:class:`~repro.orchestration.job.JobConfig` (seed included) fully
determines its :class:`~repro.orchestration.job.JobReport`.  That makes
results *content-addressable* — the config's canonical hash is the
result's identity — and re-running an identical campaign cell pure
waste.  :class:`ResultsStore` exploits this:

* :mod:`keys` — stable canonical cache keys (SHA-256 over a canonical
  serialization of the config + seed + package version);
* :mod:`codec` — lossless, NaN/inf-safe JSON round-trip codecs for
  ``JobReport``/``CombinedResult`` (and the advisor's
  ``Recommendation``);
* :mod:`backend` — sharded on-disk storage with atomic writes,
  CRC-verified reads and an in-process LRU.

Blobs live under ``root/objects/<version>/``, one directory per code
version.  Keys are version-salted, so another version's entries can
never be read; opening the store deletes every other entry under
``objects/`` (older version directories and the flat shard layout of
earlier releases).

The campaign executor consults the store before running a cell and
persists each completed cell as it finishes, so interrupted campaigns
**resume** and repeated campaigns are near-instant with bit-identical
results; the serving layer memoizes ``/recommend`` answers through the
same store.

Resolution order for the CLI: ``--store DIR`` > ``REPRO_STORE`` env >
``--resume`` (default directory ``.repro-store``) > disabled;
``--no-store`` forces disabled.
"""

from __future__ import annotations

import os
import re
import shutil
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import CodecError, ConfigurationError
from ..orchestration.job import JobConfig, JobReport
from .backend import DiskBackend
from .codec import (
    decode_payload,
    decode_report,
    encode_payload,
    encode_report,
)
from .keys import CODE_VERSION, fingerprint, job_key

__all__ = [
    "DEFAULT_STORE_DIR",
    "STORE_ENV",
    "DiskBackend",
    "ResultsStore",
    "resolve_store",
]

#: Environment variable naming the store directory (same as ``--store``).
STORE_ENV = "REPRO_STORE"

#: Directory used by ``--resume`` when no path is given.
DEFAULT_STORE_DIR = ".repro-store"


#: A version names a directory under ``objects/``: no separators, no dots first.
_VERSION = re.compile(r"[0-9A-Za-z][0-9A-Za-z._+-]*\Z")


class ResultsStore:
    """Facade tying keys + codec + backend together.

    Parameters
    ----------
    root:
        Store directory (created if missing).  Payload files live under
        ``root/objects/<version>``.
    lru_capacity:
        In-process LRU entries fronting the disk (0 disables).
    version:
        Code version salted into every key; defaults to the package
        version.  Entries from any other version are deleted on open.
    """

    def __init__(
        self,
        root,
        lru_capacity: int = 256,
        version: Optional[str] = None,
    ) -> None:
        self.version = CODE_VERSION if version is None else str(version)
        if not _VERSION.match(self.version):
            raise ConfigurationError(
                f"store version {self.version!r} is not a plain directory name"
            )
        #: The store's root directory.
        self.root = Path(root)
        objects = self.root / "objects"
        objects.mkdir(parents=True, exist_ok=True)
        #: Blob files of other code versions deleted on open.
        self.invalidated = 0
        for entry in objects.iterdir():
            if entry.name == self.version:
                continue
            if entry.is_dir():
                self.invalidated += sum(1 for _ in entry.rglob("*.json"))
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink()
        # The key index kept by earlier releases.
        (self.root / "index.jsonl").unlink(missing_ok=True)
        self.backend = DiskBackend(objects / self.version, lru_capacity=lru_capacity)
        #: Logical hit/miss counters (one per get_* call).
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- job reports --------------------------------------------------------

    def get_report(self, config: JobConfig) -> Optional[JobReport]:
        """The stored report for ``config``, or ``None`` on a miss.

        A payload that fails to decode (codec drift inside one version,
        which should not happen, or manual tampering that preserved the
        CRC) is deleted and counted as a miss rather than raised: the
        store must never make a resumable campaign *less* reliable than
        recomputing.
        """
        key = job_key(config, version=self.version)
        payload = self.backend.get(key)
        if payload is None:
            self.misses += 1
            return None
        try:
            report = decode_report(payload)
        except CodecError:
            self.backend.delete(key)
            self.misses += 1
            return None
        self.hits += 1
        return report

    def put_report(self, config: JobConfig, report: JobReport) -> None:
        """Persist one completed cell's report under its config key."""
        key = job_key(config, version=self.version)
        self.backend.put(key, encode_report(report))
        self.writes += 1

    # -- arbitrary memoized objects (serving layer) -------------------------

    def get_object(self, kind: str, params: Any) -> Optional[Any]:
        """A memoized object stored under ``(kind, params)``, or None."""
        key = fingerprint(kind, params, version=self.version)
        payload = self.backend.get(key)
        if payload is None:
            self.misses += 1
            return None
        try:
            obj = decode_payload(payload)
        except CodecError:
            self.backend.delete(key)
            self.misses += 1
            return None
        self.hits += 1
        return obj

    def put_object(self, kind: str, params: Any, obj: Any) -> None:
        """Memoize ``obj`` under ``(kind, params)``."""
        key = fingerprint(kind, params, version=self.version)
        self.backend.put(key, encode_payload(obj))
        self.writes += 1

    # -- stats --------------------------------------------------------------

    @property
    def hit_ratio(self) -> float:
        """Hits / lookups over this instance's lifetime (0.0 when idle)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def _entries(self) -> int:
        return sum(1 for _ in self.backend.iter_keys())

    def stats(self) -> Dict[str, Any]:
        """Logical counters plus the backend's tiered counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_ratio": self.hit_ratio,
            "invalidated": self.invalidated,
            "entries": self._entries(),
            "version": self.version,
            "backend": self.backend.stats(),
        }

    def render_stats(self) -> str:
        """One-line human summary (the CLI epilogue)."""
        return (
            f"store: {self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes ({self._entries()} entries at {self.root})"
        )


def resolve_store(
    path: Optional[str] = None,
    resume: bool = False,
    disabled: bool = False,
    lru_capacity: int = 256,
) -> Optional[ResultsStore]:
    """CLI/env store resolution (see module doc for the order)."""
    if disabled:
        return None
    if path is None:
        path = os.environ.get(STORE_ENV, "").strip() or None
    if path is None and resume:
        path = DEFAULT_STORE_DIR
    if path is None:
        return None
    return ResultsStore(path, lru_capacity=lru_capacity)
