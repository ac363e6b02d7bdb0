"""A persistent on-disk :class:`ModelArtifact` store shared across processes.

The store is a flat directory keyed by ``spec_hash``: each fitted model is a
``<spec_hash>.json`` manifest plus its ``<spec_hash>.npz`` array sidecar
(see :mod:`repro.api.artifact`).  Writes go through
:meth:`ModelArtifact.save`'s fsync-then-rename protocol, so concurrent
readers in other worker processes observe either the previous complete
artifact or the new one — never a torn file.

Cross-process fit coordination uses an advisory ``fcntl.flock`` on a
``<spec_hash>.fitlock`` sidecar: :meth:`ArtifactStore.fit_lock` serialises
the fit of one spec across every worker sharing the directory, which is what
keeps the ε ledger honest under multi-process serving — N workers racing the
same cold spec must produce exactly one fit (one ε spend), with the losers
loading the winner's artifact from disk.  The lock file is separate from the
manifest so locking never interferes with the atomic-rename publish.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Union

try:  # pragma: no cover - always present on the POSIX targets we support
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.api.artifact import ArtifactError, ModelArtifact

__all__ = ["ArtifactStore"]

_LOCK_SUFFIX = ".fitlock"


def _check_spec_hash(spec_hash: str) -> str:
    """Reject hashes that could escape the store directory."""
    if not spec_hash or os.path.basename(spec_hash) != spec_hash \
            or spec_hash.startswith("."):
        raise ArtifactError(f"invalid spec hash {spec_hash!r}")
    return spec_hash


class ArtifactStore:
    """Directory-backed artifact persistence keyed by ``spec_hash``.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if missing.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        # Serialises fit_lock within one process; flock is per-(process,
        # file) and re-entrant across threads, so threads must queue here
        # before taking the advisory lock.
        self._thread_locks: dict = {}
        self._thread_locks_guard = threading.Lock()

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def manifest_path(self, spec_hash: str) -> Path:
        """Where the manifest for ``spec_hash`` lives."""
        return self._root / f"{_check_spec_hash(spec_hash)}.json"

    def _lock_path(self, spec_hash: str) -> Path:
        return self._root / f"{_check_spec_hash(spec_hash)}{_LOCK_SUFFIX}"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, spec_hash: str) -> Optional[ModelArtifact]:
        """Load the stored artifact for ``spec_hash``, or ``None`` if absent.

        A present-but-unreadable artifact raises — silently refitting over a
        corrupt store would spend ε the operator did not expect.
        """
        path = self.manifest_path(spec_hash)
        try:
            return ModelArtifact.load(path)
        except FileNotFoundError:
            return None

    def put(self, artifact: ModelArtifact) -> Path:
        """Persist ``artifact`` under its ``spec_hash`` (atomic publish)."""
        return artifact.save(self.manifest_path(artifact.spec_hash))

    def __contains__(self, spec_hash: str) -> bool:
        return self.manifest_path(spec_hash).exists()

    def spec_hashes(self) -> List[str]:
        """Every spec hash with a stored artifact, sorted."""
        return sorted(
            path.stem for path in self._root.glob("*.json")
            if not path.name.startswith(".")
        )

    # ------------------------------------------------------------------
    # Cross-process fit coordination
    # ------------------------------------------------------------------
    @contextmanager
    def fit_lock(self, spec_hash: str) -> Iterator[None]:
        """Hold the cross-process fit lock for ``spec_hash``.

        Blocks until every other holder — thread or process — releases.  The
        caller must re-check :meth:`get` after acquiring: the usual pattern
        is *check, lock, check again, fit, put* so a fit that lost the race
        loads the winner's artifact instead of spending ε twice.
        """
        with self._thread_locks_guard:
            thread_lock = self._thread_locks.setdefault(
                _check_spec_hash(spec_hash), threading.Lock()
            )
        with thread_lock:
            if fcntl is None:  # pragma: no cover - non-POSIX fallback
                yield
                return
            fd = os.open(self._lock_path(spec_hash),
                         os.O_CREAT | os.O_RDWR, 0o600)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield
            finally:
                # Closing the descriptor releases the advisory lock.  The
                # lock file itself is left in place: unlinking it would race
                # a waiter that already opened the old inode.
                os.close(fd)
