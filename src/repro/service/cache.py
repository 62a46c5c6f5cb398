"""Crash-safe persistent kernel cache for the JIT compilation service.

The paper's online stage is cheap, but "cheap" times millions of requests
is still a bill worth not paying twice: a kernel lowered once for
(bytecode, target, compiler, toolchain) can be served from disk on every
later request.  Revec (Mendis et al.) documents why such caches rot —
toolchains move, artifacts get torn by crashes, disks flip bits — so this
cache is built *assuming* its own entries will go bad:

* **Atomic writes.**  Every entry lands via :func:`atomic_write`
  (``tempfile`` in the destination directory + ``fsync`` +
  ``os.replace``), so a crash mid-write leaves at worst an orphaned
  ``*.tmp`` file, never a half-written entry under the final name.
* **Checksummed entries.**  Entries reuse the VBC2 container discipline:
  a ``VBK1`` magic plus a CRC-32 of the payload.  A fresh service can
  only ever serve an entry whose checksum verifies.
* **Corruption self-healing.**  A bad entry (torn, truncated, bit-flipped,
  wrong magic, unpicklable) is *quarantined* — renamed aside, never
  deleted evidence, never served — and the lookup reports a miss so the
  caller recompiles and overwrites.
* **LRU byte-budget, reservation-style.**  The cache holds at most
  ``byte_budget`` bytes of entries; an insert *reserves* its size against
  the budget (evicting least-recently-used entries first) **before** the
  tempfile is written, so peak disk usage is bounded by the budget plus
  one in-flight entry — never "write everything, evict later".
* **Shared across replicas without coordination.**  Replicas sharing
  one cache directory may compile one key at once; each writes the
  entry atomically, the last write wins, and every replica's next hit
  reads that one entry.
* **A hot tier, subordinate to the disk.**  The cache keeps the last
  :data:`HOT_ENTRIES` kernels that ``get`` unpacked or ``put`` wrote,
  each with the exact entry bytes it came from or went to.  A hit still
  reads the entry from disk, and only when those bytes equal the
  remembered ones does it return the same kernel object (with its
  engine translations) instead of verifying, unpickling and translating
  again.  The byte compare is the tier's whole validation, so it can
  never serve what the disk would not.

Keys are :class:`CacheKey` tuples — (bytecode CRC-32, target name,
compiler name, toolchain version) — so a toolchain upgrade or a different
online compiler can never alias a stale artifact.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import tempfile
import threading
import time
import uuid
import zlib
from collections import OrderedDict
from dataclasses import dataclass

from .. import faults, obs
from ..errors import ReproError

__all__ = [
    "CacheError",
    "CacheKey",
    "KernelCache",
    "atomic_write",
    "canonical_crc",
    "pack_kernel",
    "unpack_kernel",
    "ENTRY_MAGIC",
    "TOOLCHAIN_VERSION",
]

#: gensym-suffixed identifiers (value/loop names like ``loop_i_21``) —
#: their numbering depends on process-global counter state, not on the
#: program, so they must not contribute to cache identity.
_GENSYM = re.compile(rb"([A-Za-z][A-Za-z0-9]*_)(\d+)")


def canonical_crc(data: bytes) -> int:
    """CRC-32 of ``data`` under alpha-renaming of gensym identifiers.

    The service keys its cache on the *canonical printed form* of the
    decoded bytecode (positional SSA ids, deterministic across
    processes), because the raw encoded stream embeds gensym value/loop
    names whose counters advance globally — two vectorizer runs over the
    same kernel yield alpha-equivalent but byte-different streams.  Any
    residual gensym-suffixed identifier is renumbered by first occurrence
    before hashing, so alpha-equivalent programs share a key and anything
    else gets its own.
    """
    mapping: dict[bytes, bytes] = {}

    def rename(m: re.Match) -> bytes:
        token = m.group(0)
        out = mapping.get(token)
        if out is None:
            out = mapping[token] = m.group(1) + str(len(mapping)).encode()
        return out

    return zlib.crc32(_GENSYM.sub(rename, data)) & 0xFFFFFFFF

#: entry container magic (VBK = Vapor Bytecode Kernel, format 1).
ENTRY_MAGIC = b"VBK1"
_HEADER_BYTES = len(ENTRY_MAGIC) + 4  # magic + u32le crc32(payload)

#: bound of the in-memory tier of unpacked kernels (see KernelCache.get).
#: Under tracemalloc (five small split-flow kernels on SSE) an unpacked
#: kernel takes 50-62 KB, plus 29-52 KB per codegen translation memoized
#: on it, plus its 4-5 KB of entry bytes.
HOT_ENTRIES = 64

#: cache-key component covering everything that can invalidate an artifact
#: besides the bytecode itself: package version and entry format revision.
#: Bumping either orphans old entries instead of mis-serving them.
TOOLCHAIN_VERSION = "repro-1.0.0+vbk1"


class CacheError(ReproError):
    """A kernel-cache entry could not be used.

    Attributes:
        kind: machine-readable tag — ``"bad-magic"``, ``"bad-checksum"``,
            ``"truncated"``, ``"bad-payload"``, ``"io"``, or
            ``"torn-write"`` (fault-injected crash mid-write).
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


class _InjectedTornWrite(CacheError, faults.FaultInjected):
    """A :class:`~repro.faults.CacheTornWrite` firing: the process "died"
    between writing the temp file and the atomic rename."""


@dataclass(frozen=True)
class CacheKey:
    """Identity of one lowered artifact.

    ``bytecode_crc`` is the CRC-32 of the *function bytecode* that was
    compiled (offline-stage output), so any change to the portable input
    yields a different key; ``target``/``compiler`` pin the online stage;
    ``toolchain`` pins the code that did the lowering.
    """

    bytecode_crc: int
    target: str
    compiler: str
    toolchain: str = TOOLCHAIN_VERSION

    def filename(self) -> str:
        tool = f"{zlib.crc32(self.toolchain.encode()) & 0xFFFFFFFF:08x}"
        return (
            f"{self.bytecode_crc & 0xFFFFFFFF:08x}"
            f"-{self.target}-{self.compiler}-{tool}.vbk"
        )


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically.

    The bytes go to a ``tempfile`` in the *same directory* (so the final
    ``os.replace`` is a same-filesystem rename), are flushed and
    ``fsync``\\ ed, and only then renamed over the destination.  Readers
    therefore observe either the old content or the new content, never a
    torn mix — and a crash at any point leaves the destination untouched.

    This is the one write primitive of the service layer; the CLI routes
    its artifact writes (``repro compile -o``, ``repro report --out``)
    through it too, so a crash or full disk cannot leave a truncated
    ``.vbc`` that a later run would trust.

    Fault injection: an active :class:`~repro.faults.CacheTornWrite` plan
    simulates a crash mid-write — a *partial* temp file is left behind and
    a classified, injection-marked :class:`CacheError` is raised without
    the rename ever happening.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        torn = faults.cache_torn_write()
        if torn is not None:
            # Simulated kill -9 between the partial write and the rename:
            # some bytes hit the temp file, the destination never changes.
            os.write(fd, data[: max(0, len(data) // 2)])
            os.close(fd)
            raise _InjectedTornWrite(
                "torn-write",
                f"injected crash mid-write of {os.path.basename(path)} "
                f"({torn!r}); destination untouched",
            )
        os.write(fd, data)
        os.fsync(fd)
        os.close(fd)
        os.replace(tmp, path)
    except _InjectedTornWrite:
        raise
    except BaseException:
        try:
            os.close(fd)
        except OSError:
            pass
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _pack_entry(payload: bytes) -> bytes:
    return ENTRY_MAGIC + struct.pack(
        "<I", zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload


def pack_kernel(ck) -> bytes:
    """Serialize a :class:`~repro.jit.compilers.CompiledKernel` into the
    checksummed VBK1 envelope the cache stores on disk."""
    payload = pickle.dumps(
        {
            "mfunc": ck.mfunc,
            "target": ck.target.name,
            "compiler": ck.compiler,
            "compile_seconds": ck.compile_seconds,
            "stats": dict(ck.stats),
            "degraded": ck.degraded,
            "events": list(ck.events),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _pack_entry(payload)


def unpack_kernel(data: bytes):
    """Rebuild a :class:`~repro.jit.compilers.CompiledKernel` from a VBK1
    envelope, verifying magic + checksum.

    Raises :class:`CacheError` on any defect (``truncated`` /
    ``bad-magic`` / ``bad-checksum`` / ``bad-payload``); never returns a
    kernel from bytes that don't verify.
    """
    from ..jit.compilers import CompiledKernel
    from ..targets import get_target

    payload = _unpack_entry(data)
    try:
        rec = pickle.loads(payload)
        return CompiledKernel(
            mfunc=rec["mfunc"],
            target=get_target(rec["target"]),
            compiler=rec["compiler"],
            compile_seconds=rec["compile_seconds"],
            stats=dict(rec["stats"]),
            degraded=rec["degraded"],
            events=list(rec["events"]),
        )
    except Exception as exc:  # unpicklable / malformed payload
        raise CacheError("bad-payload", f"bad-payload: {exc}") from exc


def _unpack_entry(data: bytes) -> bytes:
    """Verify the VBK1 envelope; returns the payload or raises CacheError."""
    if len(data) < _HEADER_BYTES:
        raise CacheError(
            "truncated",
            f"entry of {len(data)} bytes, need >= {_HEADER_BYTES}",
        )
    if data[: len(ENTRY_MAGIC)] != ENTRY_MAGIC:
        raise CacheError(
            "bad-magic",
            f"expected {ENTRY_MAGIC!r}, got {bytes(data[:4])!r}",
        )
    (stored,) = struct.unpack("<I", data[len(ENTRY_MAGIC):_HEADER_BYTES])
    payload = data[_HEADER_BYTES:]
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if stored != actual:
        raise CacheError(
            "bad-checksum",
            f"entry checksum mismatch: header 0x{stored:08x}, "
            f"payload 0x{actual:08x}",
        )
    return payload


class KernelCache:
    """Persistent, self-healing, LRU-bounded store of compiled kernels.

    ``get`` returns a :class:`~repro.jit.compilers.CompiledKernel`
    for the entry on disk, or ``None`` on miss *or* on any corruption
    (after quarantining the bad entry); while the entry's bytes are
    unchanged, repeated hits return one shared kernel from the hot tier.
    ``put`` serializes the kernel and writes it atomically after
    *reserving* its size against ``byte_budget`` (evicting LRU entries
    first if needed).

    Thread-safe with **scoped locking**: the index lock guards only the
    index, the hot tier and the counters.  Disk I/O — entry reads,
    unpickling, ``atomic_write``, eviction unlinks — happens *outside*
    the lock, so concurrent gets/puts for distinct keys overlap instead
    of serializing behind one reader's disk + unpickle time.  Atomic
    renames mean concurrent readers never see torn entries regardless.

    The byte budget is enforced against a **running total**
    (``_bytes``), updated on every insert/evict/quarantine — eviction is
    O(evicted), not the old O(n²) recompute-the-sum-per-eviction.
    """

    def __init__(self, root: str, byte_budget: int = 8 << 20) -> None:
        self.root = str(root)
        self.byte_budget = int(byte_budget)
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()  # index, tier, counters — no I/O
        #: filename -> size, in LRU order (oldest first).
        self._index: OrderedDict[str, int] = OrderedDict()
        #: the hot tier: filename -> (entry bytes, the kernel they
        #: encode), in LRU order, at most HOT_ENTRIES; filled by get and
        #: by a put whose write landed.
        self._hot: OrderedDict[str, tuple[bytes, object]] = OrderedDict()
        #: running sum of ``_index.values()`` (kept exact under _lock).
        self._bytes = 0
        #: bytes reserved by in-flight ``put`` calls (admission holds
        #: them against the budget before the tempfile exists).
        self._pending = 0
        self.hits = 0
        self.hot_hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0
        self.put_failures = 0
        self.oversize_rejects = 0
        self.budget_rejects = 0
        self._scan()

    # -- index maintenance ----------------------------------------------------

    def _scan(self) -> None:
        """Rebuild the LRU index from disk (mtime order, oldest first)."""
        entries = []
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if not name.endswith(".vbk") or not os.path.isfile(path):
                continue
            st = os.stat(path)
            entries.append((st.st_mtime_ns, name, st.st_size))
        self._index.clear()
        self._bytes = 0
        for _mt, name, size in sorted(entries):
            self._index[name] = size
            self._bytes += size

    def _quarantine(self, name: str, reason: str) -> None:
        """Move a bad entry aside — it must never be served again, but the
        evidence is kept for post-mortems.

        Evidence names are suffixed with a monotonic timestamp plus a
        random tag, *not* the in-process ``quarantined`` counter: the
        counter resets on every restart, so two services (or one service
        restarted) quarantining the same entry name would silently
        ``os.replace`` the earlier evidence away.
        """
        os.makedirs(self.quarantine_dir, exist_ok=True)
        src = os.path.join(self.root, name)
        tag = f"{time.monotonic_ns():016x}-{uuid.uuid4().hex[:8]}"
        dst = os.path.join(self.quarantine_dir, f"{name}.{tag}.bad")
        try:
            os.replace(src, dst)
        except OSError:
            try:  # fallback: at minimum make it unservable
                os.unlink(src)
            except OSError:
                pass
        with self._lock:
            self.quarantined += 1
            self._forget(name)
        obs.count("cache.quarantined")

    def _drop_index(self, name: str) -> int | None:
        """Remove ``name`` from the index, keeping ``_bytes`` exact.

        Caller must hold ``_lock``.  Returns the dropped size, or None.
        """
        size = self._index.pop(name, None)
        if size is not None:
            self._bytes -= size
        return size

    def _forget(self, name: str) -> None:
        """Drop ``name`` from the index and the hot tier: its entry is
        gone from disk, or about to be.  Caller must hold ``_lock``."""
        self._drop_index(name)
        self._hot.pop(name, None)

    def _remember(self, name: str, data: bytes, ck) -> None:
        """Make ``(data, ck)`` the hot-tier entry of ``name``, most
        recently used, within HOT_ENTRIES.  Caller must hold ``_lock``."""
        self._hot.pop(name, None)
        self._hot[name] = (data, ck)
        if len(self._hot) > HOT_ENTRIES:
            self._hot.popitem(last=False)

    def _unlink_evicted(self, names: list[str]) -> None:
        for name in names:
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                pass
            obs.count("cache.evictions")

    def total_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._index)

    # -- lookup / insert ------------------------------------------------------

    def _miss(self, name: str) -> None:
        """Count a miss on ``name``: its entry is gone (a replica or an
        operator deleted it) or unusable, so neither the index nor the
        hot tier may keep it."""
        with self._lock:
            self.misses += 1
            self._forget(name)
        obs.count("cache.misses")

    def get(self, key: CacheKey):
        """The cached :class:`CompiledKernel` for ``key``, or None.

        Corrupt entries are quarantined and reported as misses — the
        caller recompiles and ``put`` overwrites, which is the
        self-healing loop.

        Every call reads the entry from disk.  When the bytes equal the
        ones the hot tier's kernel for this name was unpacked from (or
        written as, by ``put``), that same kernel is returned
        (``hot_hits``), translations included;
        otherwise the bytes are verified and unpacked and the result
        replaces the tier entry.  Comparing bytes, not mtimes or sizes,
        is what keeps the tier exact: a replica may overwrite an entry
        in the shared directory, and a rewrite in place can keep the
        inode, the size and even the mtime tick.

        The read, the compare and the unpickle happen *outside* the
        index lock (the entry file is immutable once renamed into
        place; a concurrent ``put`` atomically replaces it, so this
        reader sees the old bytes or the new bytes, never a mix) — only
        the tier lookup and the LRU touch take the lock.
        """
        name = key.filename()
        path = os.path.join(self.root, name)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            self._miss(name)
            return None
        except OSError as exc:
            self._miss(name)
            self._quarantine(name, f"io: {exc}")
            return None
        with self._lock:
            hot = self._hot.get(name)
        from_tier = hot is not None and hot[0] == data
        if from_tier:
            ck = hot[1]
        else:
            try:
                ck = unpack_kernel(data)
            except CacheError as exc:
                self._miss(name)
                self._quarantine(name, exc.kind)
                return None
            hot = (data, ck)
        with self._lock:
            # LRU touch of the index and the tier.
            self._drop_index(name)
            self._index[name] = len(data)
            self._bytes += len(data)
            self.hits += 1
            self.hot_hits += from_tier
            self._remember(name, *hot)
        try:
            os.utime(path)
        except OSError:
            pass
        obs.count("cache.hits")
        if from_tier:
            obs.count("cache.hot_hits")
        return ck

    def put(self, key: CacheKey, ck) -> bool:
        """Persist ``ck`` under ``key`` atomically; True on success.

        ``ck`` is packed once and those bytes are written; once the
        write has landed, the hot tier maps them to ``ck`` (the kernel
        the caller is serving), so the first warm hit reuses its
        translations instead of unpacking and translating again.  A failed write (including
        an injected torn write) never poisons the cache: the destination
        is untouched and the failure is only counted — serving the
        freshly compiled kernel is unaffected.

        Admission is **reservation-style**: the entry's size is reserved
        against the byte budget — evicting LRU entries as needed — *before*
        the tempfile is written, so peak disk usage stays bounded by the
        budget (plus unreserved foreign writes), never "write first, evict
        later".  An entry larger than the whole budget is rejected outright
        (``oversize_rejects``) instead of flushing the cache for nothing;
        when concurrent reservations outrun the budget even with the index
        drained, the put is likewise given up (``budget_rejects``) rather
        than overshooting the bound; and a failed write rolls its
        reservation back.  A rejected put is benign — the compile result
        is still served, only the cache insert is skipped.
        """
        data = pack_kernel(ck)
        size = len(data)
        name = key.filename()
        reject = None
        evicted: list[str] = []
        with self._lock:
            if size > self.byte_budget:
                self.oversize_rejects += 1
                reject = "cache.oversize_rejects"
            else:
                self._pending += size
                while self._index and (
                    self._bytes + self._pending > self.byte_budget
                ):
                    ename, esize = self._index.popitem(last=False)
                    self._bytes -= esize
                    self._hot.pop(ename, None)
                    self.evictions += 1
                    evicted.append(ename)
                if self._bytes + self._pending > self.byte_budget:
                    self._pending -= size
                    self.budget_rejects += 1
                    reject = "cache.budget_rejects"
        self._unlink_evicted(evicted)
        if reject is not None:
            obs.count(reject)
            return False
        try:
            # Disk I/O outside the lock: the write is an atomic rename,
            # so concurrent readers of the same name are already safe.
            atomic_write(os.path.join(self.root, name), data)
        except (CacheError, OSError):
            with self._lock:
                self._pending -= size
                self.put_failures += 1
            obs.count("cache.put_failures")
            return False
        with self._lock:
            self._pending -= size
            self._drop_index(name)
            self._index[name] = size
            self._bytes += size
            total = self._bytes
            self._remember(name, data, ck)
        obs.count("cache.puts")
        obs.gauge("cache.bytes", total)
        return True

    def evict(self, key: CacheKey) -> bool:
        """Remove the entry for ``key`` (cache invalidation); True when an
        on-disk entry existed and was removed."""
        name = key.filename()
        with self._lock:
            self._forget(name)
        try:
            os.unlink(os.path.join(self.root, name))
        except OSError:
            return False
        with self._lock:
            self.evictions += 1
        obs.count("cache.evictions")
        return True

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._index),
                "bytes": self._bytes,
                "byte_budget": self.byte_budget,
                "hits": self.hits,
                "hot_hits": self.hot_hits,
                "misses": self.misses,
                "hit_ratio": (
                    self.hits / (self.hits + self.misses)
                    if (self.hits + self.misses)
                    else 0.0
                ),
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "put_failures": self.put_failures,
                "oversize_rejects": self.oversize_rejects,
                "budget_rejects": self.budget_rejects,
                "pending_bytes": self._pending,
            }
