#ifndef TENSORDASH_CORE_RESULT_STORE_HH_
#define TENSORDASH_CORE_RESULT_STORE_HH_

/**
 * @file
 * Content-addressed cache of per-(layer, op) simulation results.
 *
 * Simulation cells are pure functions of their TaskKey, so a result
 * computed once is valid forever: the store memoises OpCellResults in
 * memory (shared by every ModelRunner in the process) and, when a
 * cache directory is supplied, mirrors them to disk.  A warm cache
 * turns a repeated figure sweep — fig13 and fig15 simulate the
 * identical grid — into pure lookups with zero op simulations, and
 * because keys identify the op rather than the workload phase, an
 * inference sweep is born warm wherever a training sweep already ran
 * its Forward cells.
 *
 * Disk layout: immutable packs, one per sweep and directory.  insert()
 * memoises a cell and queues it for its directory; flush() writes each
 * directory's queue as one `<fnv64-of-bytes>.tdpk` file (unique temp
 * file + rename, so concurrent processes may share a directory and a
 * reader never sees a torn pack):
 *
 *   header   u32 magic "TDPK" | u32 kResultFormatVersion | u32 count
 *   record   u64 key | u32 payload length | payload (the serialized
 *            OpCellResult) | u64 FNV-1a over key, length and payload
 *
 * Records are sorted by key, so a sweep's pack is byte-identical, and
 * identically named, whatever the thread interleaving.  A record that
 * fails its checksum or does not deserialize is skipped on its own:
 * a flipped byte in a shared cache costs one re-simulation, never a
 * wrong cell.
 *
 * Flush points: runGrid flushes once after its claim loop (cancelled
 * and partial sweeps included, so a SIGTERM-drained sweep keeps every
 * finished cell), and clearMemo() and the destructor flush before
 * they drop anything.  A SIGKILLed or crashed process loses its
 * sweep's unflushed cells; they re-simulate on next use.
 *
 * Visibility: on a memo miss, lookup() stats the directory and, if
 * this store has not scanned it yet or its mtime differs from the one
 * recorded just before the last listing, loads the packs it has not
 * seen and stages their records, so each record's first lookup counts
 * as a disk hit.  A pack that lands within the same mtime tick as a
 * scan is seen at the directory's next change — at most one
 * re-simulation of its cells, never a wrong one.
 *
 * Invalidation is by construction, not by policy: any change to a
 * result-affecting input (accelerator config, DRAM timing, layer
 * shape, sparsity profile, progress, seed) or to the serialized result
 * layout (kResultFormatVersion) produces a different key, so stale
 * records are never *read*, merely orphaned.  A cache directory can
 * therefore be deleted at any time with no correctness impact.
 *
 * Thread safety: every member is serialised by one mutex; lookup and
 * insert are called from inside the parallel task claim loop.
 */

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/runner.hh"

namespace tensordash {

/** What td-cache reports a cache directory file as. */
enum class CacheEntryState
{
    Ok,     ///< a pack of the current format: lookups read it
    Stale,  ///< never read again: a pack of another format version,
            ///< or a per-cell file left by a pre-pack cache
    Corrupt ///< no recognisable header: maybe not a cache file at all
};

/**
 * Metadata of one on-disk cache file, read from its header and the
 * filesystem (td-cache ls / prune).  Files whose header cannot be read
 * or whose magic is wrong are reported as Corrupt rather than skipped,
 * so a polluted directory is visible.
 */
struct CacheEntryInfo
{
    std::string path;
    uint32_t version = 0; ///< format version from the header
    uint64_t cells = 0;   ///< records the header declares
    uint64_t bytes = 0;   ///< file size
    int64_t mtime = 0;    ///< last-modified, seconds since the epoch
    CacheEntryState state = CacheEntryState::Corrupt;
};

/** What ResultStore::prune() did to a cache directory. */
struct CachePruneStats
{
    size_t scanned = 0;        ///< entries found before pruning
    uint64_t scanned_bytes = 0;
    size_t evicted = 0;        ///< entries deleted (oldest mtime first)
    uint64_t evicted_bytes = 0;

    /** Of `evicted`, entries taken by the stale-version pass. */
    size_t stale_evicted = 0;

    uint64_t remainingBytes() const { return scanned_bytes - evicted_bytes; }
};

/**
 * Eviction policy for ResultStore::prune().  Both bounds may combine:
 * age-based eviction runs first, then the size bound trims
 * oldest-first until the remaining entries fit.
 */
struct CachePruneOptions
{
    /** Keep total entry bytes at or under this (default: no bound). */
    uint64_t max_bytes = UINT64_MAX;

    /** Evict entries older than this many seconds (-1 = no age
     * bound). */
    int64_t max_age_seconds = -1;

    /**
     * Evict every Stale entry — a pack written under a format version
     * other than kResultFormatVersion, or a per-cell file a pre-pack
     * cache left behind — regardless of age or size.  Such files are
     * never read again, so this reclaims dead bytes a format change
     * orphaned; it runs before the age/size passes.  Corrupt entries
     * are left alone — they may not be cache files at all.
     */
    bool stale_versions = false;

    /** Report what would be evicted without deleting anything. */
    bool dry_run = false;

    /** "Now" for the age cutoff, seconds since the epoch (0 = the
     * wall clock; tests pin it for determinism). */
    int64_t now = 0;
};

/**
 * Monotonic effectiveness counters of one ResultStore: where lookups
 * were served from and how many results were inserted.  Benches print
 * them next to a sweep's own hit/simulated split to show whether a
 * run was fed by the memo, the disk layer, or fresh simulation.
 */
struct CacheCounters
{
    uint64_t memo_hits = 0; ///< lookups served from the in-memory memo
    uint64_t disk_hits = 0; ///< lookups served from a disk pack
    uint64_t misses = 0;    ///< lookups that found nothing
    uint64_t inserts = 0;   ///< results memoised after simulation
};

/** A cell as a pack holds it: its TaskKey value and its result. */
using PackedCell = std::pair<uint64_t, OpCellResult>;

/** Process-wide memo + optional on-disk cache of OpCellResults. */
class ResultStore
{
  public:
    ResultStore() = default;

    /** Flushes what is still queued for disk. */
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** The process-wide store every cache-enabled run consults. */
    static ResultStore &shared();

    /**
     * Fetch the result for @p key: from the in-memory memo, else —
     * when @p dir is non-empty — from @p dir's packs (populating the
     * memo on a disk hit; see the file comment for when a pack
     * becomes visible).  Corrupt, truncated or wrong-version records
     * are treated as misses.
     *
     * @return true and fill @p out on a hit
     */
    bool lookup(const TaskKey &key, OpCellResult *out,
                const std::string &dir = "");

    /**
     * Memoise @p result and, when @p dir is non-empty, queue it for
     * the next flush() into @p dir.
     */
    void insert(const TaskKey &key, const OpCellResult &result,
                const std::string &dir = "");

    /**
     * Write each directory's queued cells as one pack.  A directory
     * that rejects a write costs one warning per store; its cells stay
     * memoised in memory and are not queued again.
     *
     * @return false when some directory rejected its pack
     */
    bool flush();

    /** Entries currently memoised in memory. */
    size_t memoSize() const;

    /** Snapshot of the store's lifetime hit/miss/insert counters. */
    CacheCounters counters() const;

    /** Zero the counters (benches isolating one phase's traffic). */
    void resetCounters();

    /**
     * Flush, then drop the in-memory memo and everything learnt from
     * disk (tests and benches: the store then behaves like a fresh
     * process's; disk packs are untouched).
     */
    void clearMemo();

    /**
     * The records of pack @p bytes that pass their checksum and
     * deserialize to a whole OpCellResult, in file order.  A bad
     * header (wrong magic or format version) yields none; a damaged
     * record is skipped on its own.
     */
    static std::vector<PackedCell>
    decodePack(const std::vector<uint8_t> &bytes);

    /**
     * Cache directory a run should use: @p configured when non-empty,
     * else the TD_CACHE environment variable, else "" (memory only).
     * A missing directory is created (parents included); if that
     * fails, one warning names it and the run falls back to "" — a
     * misconfigured path costs one line, not a warning per cell.
     */
    static std::string resolveDir(const std::string &configured);

    /**
     * Enumerate @p dir's cache entries — packs, plus per-cell files a
     * pre-pack cache left behind — oldest mtime first (ties broken by
     * path, so the order — and therefore prune's eviction choice — is
     * deterministic).  A missing directory lists empty.
     */
    static std::vector<CacheEntryInfo> listDir(const std::string &dir);

    /**
     * Evict whole entries from @p dir per @p opts: first everything
     * older than the age bound, then oldest-mtime entries until the
     * remainder totals at most max_bytes (0 empties the directory).
     * With dry_run the stats report the victims but nothing is
     * deleted.  The store is append-only during simulation, so prune
     * is the only way a cache directory shrinks; eviction is always
     * safe — a pruned pack's cells simply re-simulate on next use.
     */
    static CachePruneStats prune(const std::string &dir,
                                 const CachePruneOptions &opts);

    /** Size-bound-only convenience overload. */
    static CachePruneStats prune(const std::string &dir,
                                 uint64_t max_bytes);

  private:
    using CellMap = std::unordered_map<uint64_t, OpCellResult>;

    struct DirStamp
    {
        uint64_t dev, ino;
        int64_t mtime_sec, mtime_nsec;
        bool operator==(const DirStamp &) const = default;
    };

    /** What the store queued for, and learnt from, one cache dir. */
    struct DiskDir
    {
        /** Keys inserted since the last flush (results in memo_). */
        std::vector<uint64_t> queued;
        /** The dir's identity and mtime just before the last
         * listing (unset: never listed). */
        std::optional<DirStamp> listed;
        /** Pack names already loaded or written by this store. */
        std::unordered_set<std::string> seen;
        /** Records loaded from packs and not looked up yet. */
        CellMap staged;
    };

    bool flushLocked();
    /** Load @p dir's unseen packs if it changed since the last
     * listing; @return whether anything was staged. */
    bool scanLocked(const std::string &dir, DiskDir &d);

    mutable std::mutex mu_;
    CellMap memo_;
    CacheCounters counters_;
    std::unordered_map<std::string, DiskDir> dirs_;
    /** Cache dirs that have rejected a write (warned about once). */
    std::unordered_set<std::string> unwritable_dirs_;
};

} // namespace tensordash

#endif // TENSORDASH_CORE_RESULT_STORE_HH_
