"""Durable, crash-safe ε accounting: the persistent privacy ledger.

Privacy budget is the one resource where a robustness bug is a correctness
bug: an ε ledger that loses a spend under a crash silently breaks the
end-to-end DP guarantee, and one that replays a spend starves tenants of
budget they never used.  This module gives the in-memory
:class:`~repro.privacy.accountant.PrivacyAccountant` a database-grade
on-disk twin:

* **Append-only JSON-lines WAL.**  Every state change is one checksummed
  record appended with a single ``os.write`` and made durable with
  ``fsync`` before the operation reports success.  The file is the
  auditable witness of every committed operation: nothing is ever updated
  in place.
* **Two-phase spend.**  A fit first *reserves* its ε
  (:meth:`EpsilonLedger.reserve` — this is also the admission-control
  check), runs, and then either *commits* the reservation with the
  accountant's actual per-stage breakdown or *aborts* it.  A crash between
  reserve and commit leaves a pending reservation that recovery rolls back,
  so an interrupted fit either completed atomically or leaves no spend.
* **Recovery by replay.**  Opening a ledger replays the WAL: checksums are
  verified, a torn final record (the signature of a crash mid-append) is
  truncated away, corruption anywhere else refuses to load
  (:class:`LedgerCorruptionError` — silent data loss is worse than
  downtime), and pending reservations are rolled back with explicit
  ``abort`` records so the rollback itself is witnessed.
* **Compaction.**  The WAL is periodically folded into a single snapshot
  record written to a temp file and atomically ``os.replace``-d over the
  ledger, so a long-lived service's ledger stays O(live state), not
  O(history).

:class:`LedgerStore` manages one ledger per tenant under a directory —
the multi-tenant form the HTTP service uses, with per-tenant budgets.

Integration with the accountant is one call: run the fit, then
``txn.commit(accountant=result.accountant)`` persists the accountant's
:meth:`~repro.privacy.accountant.PrivacyAccountant.breakdown` as the
committed spend.

Fault points (see :mod:`repro.testing.faults`) are compiled into every
durability boundary — ``ledger.reserve.before_append``,
``ledger.commit.before_fsync``, ``ledger.compact.before_replace``, ... —
so tests can kill the process at each one and prove that a reopened ledger
is exact: no double-spend, no lost spend.

On the crash model: within one machine, a record written but not yet
fsync'd is visible to a reopening reader (the page cache survives process
death), so a crash at ``*.before_fsync`` behaves like a completed append;
power loss could instead drop or tear it, which is the
``*.before_append`` / torn-tail case.  The recovery tests cover all three.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

try:  # pragma: no cover - always present on the POSIX targets we support
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.privacy.budget import BudgetExceededError
from repro.testing.faults import fire
from repro.utils.validation import check_epsilon

logger = logging.getLogger("repro.privacy.ledger")

#: Current version of the ledger record format.
LEDGER_FORMAT_VERSION = 1

#: Relative tolerance for budget checks (matches the accountant's).
_OVERDRAFT_TOLERANCE = 1e-9

#: Default number of WAL records that triggers automatic compaction.
DEFAULT_COMPACT_THRESHOLD = 1024

#: Tenant that requests without an explicit ``tenant`` field are billed to.
DEFAULT_TENANT = "public"

#: Every durability boundary instrumented with a fault point, in the order
#: a reserve → commit/abort cycle crosses them.  The crash-recovery matrix
#: in ``tests/privacy/test_ledger_recovery.py`` iterates this tuple, so a
#: new fault point added here is automatically covered.
LEDGER_FAULT_POINTS: Tuple[str, ...] = (
    "ledger.reserve.before_append",
    "ledger.reserve.before_fsync",
    "ledger.reserve.after_fsync",
    "ledger.commit.before_append",
    "ledger.commit.before_fsync",
    "ledger.commit.after_fsync",
    "ledger.abort.before_append",
    "ledger.abort.before_fsync",
    "ledger.compact.before_replace",
    "ledger.compact.after_replace",
)


class LedgerError(RuntimeError):
    """Base class for ledger problems."""


class LedgerCorruptionError(LedgerError):
    """The WAL contains a record that fails its checksum (not at the tail).

    A torn *final* record is the expected signature of a crash mid-append
    and is repaired silently; corruption anywhere else means the file was
    damaged and the ledger refuses to guess.
    """


def _checksum(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _encode_record(record: Dict[str, Any]) -> bytes:
    """Serialise ``record`` with an integrity checksum into one WAL line."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    line = json.dumps({**record, "c": _checksum(payload)},
                      sort_keys=True, separators=(",", ":"))
    return line.encode("utf-8") + b"\n"


def _decode_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse and verify one WAL line; ``None`` when torn or corrupt."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    stored = record.pop("c", None)
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if stored != _checksum(payload):
        return None
    return record


class LedgerTransaction:
    """One two-phase spend: reserved ε awaiting :meth:`commit` or :meth:`abort`.

    Usable as a context manager: leaving the block without having committed
    aborts the reservation (mirroring "an interrupted fit leaves no trace"),
    except for simulated process death, which recovery must repair instead.
    """

    __slots__ = ("_ledger", "txn_id", "epsilon", "_state")

    def __init__(self, ledger: "EpsilonLedger", txn_id: str, epsilon: float
                 ) -> None:
        self._ledger = ledger
        self.txn_id = txn_id
        self.epsilon = epsilon
        self._state = "pending"

    @property
    def open(self) -> bool:
        """Whether the reservation still awaits commit/abort."""
        return self._state == "pending"

    def commit(self, spends: Optional[Mapping[str, float]] = None,
               accountant: Optional[object] = None) -> None:
        """Commit the reservation, recording the actual per-stage spends.

        ``accountant`` (a :class:`~repro.privacy.accountant.PrivacyAccountant`)
        is the usual source: its dotted-path breakdown and total become the
        committed record.  Without either, the reserved ε commits in full.
        """
        if accountant is not None:
            if spends is not None:
                raise ValueError("give either 'spends' or 'accountant', not both")
            spends = accountant.breakdown()
        self._ledger._commit(self, spends)
        self._state = "committed"

    def abort(self) -> None:
        """Roll the reservation back (no ε is spent)."""
        self._ledger._abort(self)
        self._state = "aborted"

    def __enter__(self) -> "LedgerTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.open:
            from repro.testing.faults import is_simulated_crash

            if exc is not None and is_simulated_crash(exc):
                # A dead process runs no cleanup: do NOT abort.  But the
                # in-memory ledger object is part of the "dead" process —
                # mark it so the store reopens it (running recovery, which
                # rolls this reservation back) instead of serving a live
                # object with a reservation nothing will ever release.
                self._ledger._mark_dead()
                return
            self.abort()


class EpsilonLedger:
    """A durable, single-file ε ledger with two-phase spends.

    Parameters
    ----------
    path:
        The WAL file (created, with its parent directory, when missing).
    budget:
        Optional ε cap.  When set, :meth:`reserve` (and :meth:`check`)
        refuse spends that would push committed + pending ε beyond it —
        this is the admission-control primitive.  ``None`` means
        record-keeping only.
    tenant:
        Display name recorded in snapshots (the store sets it).
    compact_threshold:
        Records in the WAL beyond which a commit/abort triggers automatic
        compaction (``0`` disables).
    shared:
        Multi-process mode.  When ``True``, every top-level operation takes
        an exclusive ``fcntl.flock`` on a ``<path>.lock`` sidecar and first
        *refreshes* the in-memory state from the WAL — replaying records
        appended by sibling processes since the last look (tracked by byte
        offset), and reopening + fully replaying when the file's inode
        changed (a sibling compacted).  Budget checks therefore see every
        process's committed **and pending** ε: N workers sharing one tenant
        file cannot jointly overspend.  The lock file is separate from the
        WAL so locking never interferes with compaction's atomic rename.
    recover_pending:
        Whether opening the ledger rolls back pending reservations (the
        single-process crash-recovery default).  Shared-mode *workers* must
        pass ``False``: a sibling process's reservation is pending while its
        fit runs, and "recovering" it would abort a live spend.  The
        supervisor runs one ``recover_pending=True`` pass before any worker
        starts (see :meth:`LedgerStore.recover_all`), when no fit can be in
        flight.

    Thread safety: all operations serialise on one internal lock, so the
    multi-threaded HTTP service can share a ledger per tenant.

    Failure poisoning: if an append crashes partway (an injected fault or a
    real I/O error), the in-memory state can no longer be trusted to match
    the file, so the ledger marks itself *poisoned* and every later
    operation raises :class:`LedgerError` until the ledger is reopened —
    reopening runs recovery, which is the only trustworthy repair.
    :meth:`LedgerStore.ledger` does this transparently.
    """

    def __init__(self, path: Union[str, Path], *,
                 budget: Optional[float] = None,
                 tenant: Optional[str] = None,
                 compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
                 shared: bool = False,
                 recover_pending: bool = True) -> None:
        self._path = Path(path)
        self._budget = None if budget is None else check_epsilon(budget, "budget")
        self._tenant = tenant
        self._compact_threshold = max(0, int(compact_threshold))
        self._shared = bool(shared)
        self._recover_pending = bool(recover_pending)
        self._lock = threading.RLock()
        self._committed: Dict[str, Dict[str, Any]] = {}
        self._pending: Dict[str, float] = {}
        self._records = 0
        self._offset = 0
        self._poisoned = False
        self._closed = False
        self.recovered_txns: Tuple[str, ...] = ()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        if self._shared and fcntl is None:  # pragma: no cover - non-POSIX
            raise LedgerError(
                f"{self._path}: shared mode needs fcntl file locking, which "
                f"this platform does not provide"
            )
        self._lock_fd = -1
        if self._shared:
            self._lock_fd = os.open(self._path.with_name(self._path.name
                                                         + ".lock"),
                                    os.O_CREAT | os.O_RDWR, 0o600)
        self._fd = os.open(self._path, os.O_APPEND | os.O_CREAT | os.O_RDWR,
                           0o600)
        try:
            if self._shared:
                # Recovery reads — and may truncate a torn tail of — the
                # shared WAL; hold the cross-process lock so a sibling's
                # in-flight append is never misread as torn.
                fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
                try:
                    self._recover()
                finally:
                    fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            else:
                self._recover()
        except BaseException:
            os.close(self._fd)
            if self._lock_fd >= 0:
                os.close(self._lock_fd)
            raise

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        raw = self._path.read_bytes()
        lines = raw.split(b"\n")
        trailer = lines.pop()  # b"" after a clean final newline
        good_bytes = 0
        for index, line in enumerate(lines):
            if not line:
                good_bytes += 1  # a bare newline; tolerate
                continue
            record = _decode_record(line)
            if record is None:
                if index == len(lines) - 1 and not trailer:
                    # Torn final record: crash mid-append.  Truncate it.
                    logger.warning("ledger %s: discarding torn final record",
                                   self._path)
                    break
                raise LedgerCorruptionError(
                    f"{self._path}: record {index + 1} fails its checksum; "
                    f"refusing to load a damaged ledger"
                )
            self._apply(record)
            good_bytes += len(line) + 1
        if trailer:
            # Trailing bytes with no newline: a torn append.  Verify they do
            # not happen to checksum (they cannot — no trailing newline means
            # the write was cut short) and drop them.
            logger.warning("ledger %s: discarding %d torn trailing bytes",
                           self._path, len(trailer))
        if good_bytes != len(raw):
            os.ftruncate(self._fd, good_bytes)
            os.fsync(self._fd)
        self._offset = good_bytes
        if not self._recover_pending:
            # Shared-mode workers: a pending reservation may belong to a
            # *live* sibling process mid-fit — leave it alone.  The
            # supervisor's pre-fork recovery pass is the one that rolls back
            # genuinely orphaned reservations.
            self.recovered_txns = ()
            return
        # Roll back reservations interrupted by a crash, witnessing each
        # rollback with an explicit abort record.
        interrupted = tuple(self._pending)
        for txn_id in interrupted:
            self._append("abort", {"txn": txn_id, "recovered": True},
                         point="ledger.abort")
            del self._pending[txn_id]
        self.recovered_txns = interrupted
        if interrupted:
            logger.warning("ledger %s: rolled back %d interrupted spend(s): %s",
                           self._path, len(interrupted), ", ".join(interrupted))

    def _apply(self, record: Dict[str, Any]) -> None:
        """Replay one verified WAL record into the in-memory state."""
        kind = record.get("kind")
        self._records += 1
        if kind == "snapshot":
            self._committed = {
                txn: dict(entry)
                for txn, entry in record.get("committed", {}).items()
            }
            self._pending = {}
        elif kind == "reserve":
            txn = record["txn"]
            if txn in self._pending or txn in self._committed:
                raise LedgerCorruptionError(
                    f"{self._path}: duplicate reserve for txn {txn!r}"
                )
            self._pending[txn] = float(record["epsilon"])
        elif kind == "commit":
            txn = record["txn"]
            if txn not in self._pending:
                raise LedgerCorruptionError(
                    f"{self._path}: commit for unknown txn {txn!r}"
                )
            del self._pending[txn]
            self._committed[txn] = {
                "epsilon": float(record["epsilon"]),
                "spends": dict(record.get("spends", {})),
            }
        elif kind == "abort":
            # Recovery-written aborts may target a txn we already rolled
            # back in memory on a previous open; tolerate unknown txns.
            self._pending.pop(record["txn"], None)
        else:
            raise LedgerCorruptionError(
                f"{self._path}: unknown record kind {kind!r}"
            )

    # ------------------------------------------------------------------
    # Cross-process coordination (shared mode)
    # ------------------------------------------------------------------
    @contextmanager
    def _exclusive(self) -> Iterator[None]:
        """Serialise a top-level operation, across threads and processes.

        In shared mode this holds the flock for the operation's duration
        and refreshes the in-memory state first, so the operation acts on
        the union of every process's records.  Single-process mode reduces
        to the plain thread lock.
        """
        with self._lock:
            if not self._shared:
                yield
                return
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
            try:
                self._refresh_locked()
                yield
            finally:
                fcntl.flock(self._lock_fd, fcntl.LOCK_UN)

    def _refresh_locked(self) -> None:
        """Catch up with sibling processes' WAL records (flock held).

        Two cases: the file was atomically replaced by a sibling's
        compaction (inode changed — reopen and replay from scratch), or it
        simply grew (replay the tail from the saved byte offset).  A torn
        tail can only be the leavings of a crashed sibling — every live
        append happens under the flock we now hold — so it is truncated
        exactly like open-time recovery would.
        """
        if self._poisoned or self._closed:
            return
        try:
            st_path = os.stat(self._path)
        except FileNotFoundError:  # pragma: no cover - operator interference
            raise LedgerError(f"{self._path}: ledger file disappeared")
        st_fd = os.fstat(self._fd)
        if (st_path.st_ino, st_path.st_dev) != (st_fd.st_ino, st_fd.st_dev):
            # A sibling compacted: our fd points at the old inode.
            os.close(self._fd)
            self._fd = os.open(self._path,
                               os.O_APPEND | os.O_CREAT | os.O_RDWR, 0o600)
            self._committed = {}
            self._pending = {}
            self._records = 0
            self._offset = 0
            st_path = os.stat(self._path)
        if st_path.st_size < self._offset:  # pragma: no cover - see above
            raise LedgerError(
                f"{self._path}: ledger shrank outside compaction; refusing "
                f"to guess at its state"
            )
        if st_path.st_size == self._offset:
            return
        raw = os.pread(self._fd, st_path.st_size - self._offset, self._offset)
        lines = raw.split(b"\n")
        trailer = lines.pop()
        consumed = 0
        for index, line in enumerate(lines):
            if not line:
                consumed += 1
                continue
            record = _decode_record(line)
            if record is None:
                if index == len(lines) - 1 and not trailer:
                    logger.warning(
                        "ledger %s: discarding a crashed sibling's torn "
                        "final record", self._path,
                    )
                    break
                raise LedgerCorruptionError(
                    f"{self._path}: sibling-appended record fails its "
                    f"checksum; refusing to load a damaged ledger"
                )
            self._apply(record)
            consumed += len(line) + 1
        self._offset += consumed
        if self._offset != st_path.st_size:
            os.ftruncate(self._fd, self._offset)
            os.fsync(self._fd)

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def _append(self, kind: str, payload: Dict[str, Any], *, point: str
                ) -> None:
        """Append one record durably, firing the boundary fault points."""
        if self._poisoned:
            raise LedgerError(
                f"{self._path}: ledger is poisoned after a failed append; "
                f"reopen it to run recovery"
            )
        if self._closed:
            raise LedgerError(f"{self._path}: ledger is closed")
        record = {"kind": kind, "v": LEDGER_FORMAT_VERSION, **payload}
        line = _encode_record(record)
        try:
            fire(f"{point}.before_append")
            os.write(self._fd, line)
            fire(f"{point}.before_fsync")
            os.fsync(self._fd)
            fire(f"{point}.after_fsync")
        except BaseException:
            # The file and the in-memory state may now disagree; only
            # recovery (a reopen) can re-establish truth.
            self._poisoned = True
            raise
        self._records += 1
        # Our own append must not be replayed by the next refresh.
        self._offset += len(line)

    def _mark_dead(self) -> None:
        """Invalidate the in-memory state (simulated process death).

        Nothing is written; the next :meth:`LedgerStore.ledger` call reopens
        the file, and recovery repairs whatever the "crash" interrupted.
        """
        with self._lock:
            self._poisoned = True

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The WAL file."""
        return self._path

    @property
    def budget(self) -> Optional[float]:
        """The tenant's ε cap (``None``: record-keeping only)."""
        return self._budget

    @property
    def poisoned(self) -> bool:
        """Whether a failed append invalidated the in-memory state."""
        return self._poisoned

    @property
    def spent(self) -> float:
        """Total committed ε."""
        with self._lock:
            return float(sum(entry["epsilon"]
                             for entry in self._committed.values()))

    @property
    def pending(self) -> float:
        """Total ε reserved by open (uncommitted) transactions."""
        with self._lock:
            return float(sum(self._pending.values()))

    @property
    def remaining(self) -> float:
        """Budget headroom (``inf`` without a budget)."""
        if self._budget is None:
            return float("inf")
        with self._lock:
            return max(0.0, self._budget - self.spent - self.pending)

    def spends(self) -> Dict[str, float]:
        """Committed spend aggregated per dotted stage path."""
        totals: Dict[str, float] = {}
        with self._lock:
            for entry in self._committed.values():
                breakdown = entry.get("spends") or {}
                if breakdown:
                    for key, value in breakdown.items():
                        totals[key] = totals.get(key, 0.0) + float(value)
                else:
                    totals["total"] = totals.get("total", 0.0) + entry["epsilon"]
        return totals

    def as_dict(self) -> Dict[str, Any]:
        """Serialisable summary (the service's ``GET /ledgers`` view)."""
        with self._exclusive():
            return {
                "tenant": self._tenant,
                "path": str(self._path),
                "budget": self._budget,
                "spent": self.spent,
                "pending": self.pending,
                "remaining": (None if self._budget is None else self.remaining),
                "committed_txns": len(self._committed),
                "records": self._records,
            }

    # ------------------------------------------------------------------
    # Two-phase spending
    # ------------------------------------------------------------------
    def check(self, epsilon: float) -> None:
        """Admission control: raise unless ``epsilon`` fits the budget now.

        Advisory (state can change before the reserve); the authoritative
        check is :meth:`reserve`, which holds the lock across check+append.
        """
        epsilon = check_epsilon(epsilon, "epsilon")
        with self._exclusive():
            self._check_locked(epsilon)

    def _check_locked(self, epsilon: float) -> None:
        if self._budget is None:
            return
        committed = self.spent + self.pending
        if committed + epsilon > self._budget * (1.0 + _OVERDRAFT_TOLERANCE):
            raise BudgetExceededError(
                f"tenant budget exceeded: spending {epsilon:.6g} would take "
                f"committed+pending ε to {committed + epsilon:.6g} of "
                f"{self._budget:.6g}"
            )

    def reserve(self, epsilon: float, txn_id: Optional[str] = None
                ) -> LedgerTransaction:
        """Phase one: durably reserve ``epsilon`` against the budget.

        Returns the open :class:`LedgerTransaction`.  Raises
        :class:`~repro.privacy.budget.BudgetExceededError` when the budget
        cannot cover the reservation, before anything is written.
        """
        epsilon = check_epsilon(epsilon, "epsilon")
        txn_id = txn_id or f"txn-{uuid.uuid4().hex[:12]}"
        with self._exclusive():
            if txn_id in self._pending or txn_id in self._committed:
                raise LedgerError(f"transaction id {txn_id!r} already used")
            self._check_locked(epsilon)
            self._append("reserve", {"txn": txn_id, "epsilon": epsilon},
                         point="ledger.reserve")
            self._pending[txn_id] = epsilon
        return LedgerTransaction(self, txn_id, epsilon)

    def _commit(self, txn: LedgerTransaction,
                spends: Optional[Mapping[str, float]]) -> None:
        with self._exclusive():
            if txn.txn_id not in self._pending:
                raise LedgerError(
                    f"cannot commit {txn.txn_id!r}: not an open reservation "
                    f"(double commit, or committed by a previous incarnation)"
                )
            breakdown = {key: float(value) for key, value in (spends or {}).items()}
            epsilon = (float(sum(breakdown.values())) if breakdown
                       else self._pending[txn.txn_id])
            self._append(
                "commit",
                {"txn": txn.txn_id, "epsilon": epsilon, "spends": breakdown},
                point="ledger.commit",
            )
            del self._pending[txn.txn_id]
            self._committed[txn.txn_id] = {"epsilon": epsilon,
                                           "spends": breakdown}
            self._maybe_compact_locked()

    def _abort(self, txn: LedgerTransaction) -> None:
        with self._exclusive():
            if txn.txn_id not in self._pending:
                raise LedgerError(
                    f"cannot abort {txn.txn_id!r}: not an open reservation"
                )
            self._append("abort", {"txn": txn.txn_id}, point="ledger.abort")
            del self._pending[txn.txn_id]
            self._maybe_compact_locked()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _maybe_compact_locked(self) -> None:
        if self._compact_threshold and self._records >= self._compact_threshold:
            self._compact_locked()

    def compact(self) -> None:
        """Fold the WAL into one snapshot record (atomic rename)."""
        with self._exclusive():
            self._compact_locked()

    def _compact_locked(self) -> None:
        if self._poisoned or self._closed:
            raise LedgerError(f"{self._path}: cannot compact a "
                              f"{'poisoned' if self._poisoned else 'closed'} "
                              f"ledger")
        if self._pending:
            # Snapshots drop pending state by design (a snapshot asserts
            # "this is the complete committed truth"); compacting while a
            # spend is in flight would erase its reservation.
            return
        snapshot = _encode_record({
            "kind": "snapshot",
            "v": LEDGER_FORMAT_VERSION,
            "tenant": self._tenant,
            "committed": self._committed,
        })
        temp = self._path.with_name(self._path.name + f".compact-{os.getpid()}")
        try:
            temp_fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            try:
                os.write(temp_fd, snapshot)
                os.fsync(temp_fd)
            finally:
                os.close(temp_fd)
            fire("ledger.compact.before_replace")
            os.replace(temp, self._path)
            fire("ledger.compact.after_replace")
        except BaseException:
            self._poisoned = True
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
        # Swap the append fd to the new file.
        old_fd = self._fd
        self._fd = os.open(self._path, os.O_APPEND | os.O_CREAT | os.O_RDWR,
                           0o600)
        os.close(old_fd)
        self._records = 1
        self._offset = len(snapshot)
        self._fsync_parent()

    def _fsync_parent(self) -> None:
        """Make the rename itself durable (POSIX directory fsync)."""
        try:
            parent_fd = os.open(self._path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(parent_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(parent_fd)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the WAL file descriptor (idempotent)."""
        with self._lock:
            if not self._closed:
                self._closed = True
                os.close(self._fd)
                if self._lock_fd >= 0:
                    os.close(self._lock_fd)
                    self._lock_fd = -1

    def __enter__(self) -> "EpsilonLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"EpsilonLedger({str(self._path)!r}, budget={self._budget}, "
                f"spent={self.spent:.6g}, pending={self.pending:.6g})")


def _check_tenant_name(tenant: str) -> str:
    """Validate a tenant id (it becomes a file name — keep it boring)."""
    if (not tenant or not isinstance(tenant, str) or len(tenant) > 64
            or not all((ch.isascii() and ch.isalnum()) or ch in "._-"
                       for ch in tenant)
            or tenant.startswith(".")):
        raise ValueError(
            f"tenant must be 1-64 chars of [A-Za-z0-9._-], not starting "
            f"with '.', got {tenant!r}"
        )
    return tenant


class LedgerStore:
    """A directory of per-tenant :class:`EpsilonLedger` files.

    Parameters
    ----------
    directory:
        Where ledgers live; one ``<tenant>.ledger.jsonl`` per tenant.
    default_budget:
        ε cap applied to tenants without an explicit entry in ``budgets``
        (``None``: unlimited, record-keeping only).
    budgets:
        Per-tenant ε caps overriding the default.
    compact_threshold:
        Forwarded to each ledger.
    shared / recover_pending:
        Forwarded to each ledger (see :class:`EpsilonLedger`).  Worker
        processes of a multi-process server open their stores with
        ``shared=True, recover_pending=False``; the supervisor's pre-fork
        :meth:`recover_all` pass keeps the default ``recover_pending=True``.

    Ledgers open lazily on first use and are cached; a ledger poisoned by a
    failed append is transparently reopened (running recovery) on the next
    :meth:`ledger` call, which is how the long-lived service self-heals
    after a crashed spend.
    """

    LEDGER_SUFFIX = ".ledger.jsonl"

    def __init__(self, directory: Union[str, Path], *,
                 default_budget: Optional[float] = None,
                 budgets: Optional[Mapping[str, float]] = None,
                 compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
                 shared: bool = False,
                 recover_pending: bool = True) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._default_budget = (None if default_budget is None
                                else check_epsilon(default_budget,
                                                   "default_budget"))
        self._budgets = {
            _check_tenant_name(tenant): check_epsilon(value, f"budgets[{tenant}]")
            for tenant, value in (budgets or {}).items()
        }
        self._compact_threshold = compact_threshold
        self._shared = bool(shared)
        self._recover_pending = bool(recover_pending)
        self._lock = threading.Lock()
        self._ledgers: Dict[str, EpsilonLedger] = {}

    @property
    def directory(self) -> Path:
        """The store's root directory."""
        return self._directory

    def budget_for(self, tenant: str) -> Optional[float]:
        """The ε cap that applies to ``tenant``."""
        return self._budgets.get(tenant, self._default_budget)

    def ledger(self, tenant: str) -> EpsilonLedger:
        """The tenant's ledger, opened (and recovered) on first use.

        A poisoned cached ledger is closed and reopened here — reopening
        replays the WAL, which is the designed repair path.
        """
        tenant = _check_tenant_name(tenant)
        with self._lock:
            cached = self._ledgers.get(tenant)
            if cached is not None and not cached.poisoned:
                return cached
            if cached is not None:
                cached.close()
            opened = EpsilonLedger(
                self._directory / f"{tenant}{self.LEDGER_SUFFIX}",
                budget=self.budget_for(tenant),
                tenant=tenant,
                compact_threshold=self._compact_threshold,
                shared=self._shared,
                recover_pending=self._recover_pending,
            )
            self._ledgers[tenant] = opened
            return opened

    def tenants(self) -> List[str]:
        """Every tenant with a ledger file on disk (opened or not)."""
        names = {
            path.name[: -len(self.LEDGER_SUFFIX)]
            for path in self._directory.glob(f"*{self.LEDGER_SUFFIX}")
        }
        with self._lock:
            names.update(self._ledgers)
        return sorted(names)

    def as_dict(self) -> Dict[str, Any]:
        """Summaries of every tenant ledger (opens them read-wise)."""
        return {tenant: self.ledger(tenant).as_dict()
                for tenant in self.tenants()}

    def recover_all(self) -> Dict[str, Tuple[str, ...]]:
        """Open (and thereby recover) every tenant ledger on disk.

        The multi-process supervisor runs this once before forking any
        worker: with no worker alive, every pending reservation is a
        genuine orphan from a previous incarnation, so rolling them back
        here is safe — and workers can then open the same files with
        ``recover_pending=False``.  Returns the rolled-back transaction ids
        per tenant (empty tuples for clean ledgers).
        """
        return {tenant: self.ledger(tenant).recovered_txns
                for tenant in self.tenants()}

    def compact(self) -> None:
        """Compact every open ledger."""
        with self._lock:
            ledgers = list(self._ledgers.values())
        for ledger in ledgers:
            if not ledger.poisoned:
                ledger.compact()

    def close(self) -> None:
        """Close every open ledger (idempotent)."""
        with self._lock:
            ledgers = list(self._ledgers.values())
            self._ledgers.clear()
        for ledger in ledgers:
            ledger.close()

    def __enter__(self) -> "LedgerStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
