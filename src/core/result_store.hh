#ifndef TENSORDASH_CORE_RESULT_STORE_HH_
#define TENSORDASH_CORE_RESULT_STORE_HH_

/**
 * @file
 * Content-addressed cache of per-(layer, op) simulation results.
 *
 * Simulation cells are pure functions of their TaskKey, so a result
 * computed once is valid forever: the store memoises OpCellResults in
 * memory (shared by every ModelRunner in the process) and, when a
 * cache directory is supplied, mirrors them to disk as versioned
 * binary blobs named by the key's hex fingerprint.  A warm cache turns
 * a repeated figure sweep — fig13 and fig15 simulate the identical
 * grid — into pure lookups with zero op simulations, and because keys
 * identify the op rather than the workload phase, an inference sweep
 * is born warm wherever a training sweep already ran its Forward
 * cells.
 *
 * Invalidation is by construction, not by policy: any change to a
 * result-affecting input (accelerator config, DRAM timing, layer
 * shape, sparsity profile, progress, seed) or to the serialized result
 * layout (kResultFormatVersion) produces a different key, so stale
 * entries are never *read*, merely orphaned.  A cache directory can
 * therefore be deleted at any time with no correctness impact.
 *
 * Thread safety: lookup/insert are serialised by a mutex and called
 * from inside the parallel task claim loop; disk writes are atomic
 * (unique temp file + rename), so concurrent processes may share one
 * directory.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/runner.hh"

namespace tensordash {

/**
 * Metadata of one on-disk cache entry, read from the blob header and
 * the filesystem (td-cache ls / prune).  Entries whose header cannot
 * be read or whose magic is wrong are reported with valid == false
 * rather than skipped, so a polluted directory is visible.
 */
struct CacheEntryInfo
{
    std::string path;
    uint64_t key = 0;     ///< task key from the blob header
    uint32_t version = 0; ///< blob format version from the header
    uint64_t bytes = 0;   ///< file size
    int64_t mtime = 0;    ///< last-modified, seconds since the epoch
    bool valid = false;   ///< header present with the entry magic
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
     * Evict every entry written under a format version other than
     * kResultFormatVersion, regardless of age or size.  Such entries
     * are never read again (lookup rejects their header), so this
     * reclaims dead bytes a version bump orphaned; it runs before the
     * age/size passes.  Unreadable (corrupt) entries are left alone —
     * they may not be result blobs at all.
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
    uint64_t disk_hits = 0; ///< lookups served from a disk entry
    uint64_t misses = 0;    ///< lookups that found nothing
    uint64_t inserts = 0;   ///< results memoised after simulation
};

/** Process-wide memo + optional on-disk cache of OpCellResults. */
class ResultStore
{
  public:
    ResultStore() = default;

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** The process-wide store every cache-enabled run consults. */
    static ResultStore &shared();

    /**
     * Fetch the result for @p key: from the in-memory memo, else —
     * when @p dir is non-empty — from disk (populating the memo on a
     * disk hit).  Corrupt, truncated or wrong-version disk entries are
     * treated as misses.
     *
     * @return true and fill @p out on a hit
     */
    bool lookup(const TaskKey &key, OpCellResult *out,
                const std::string &dir = "");

    /**
     * Memoise @p result and, when @p dir is non-empty, persist it.  A
     * directory that rejects a write costs one warning per store; its
     * results stay memoised in memory.
     */
    void insert(const TaskKey &key, const OpCellResult &result,
                const std::string &dir = "");

    /** Entries currently memoised in memory. */
    size_t memoSize() const;

    /** Snapshot of the store's lifetime hit/miss/insert counters. */
    CacheCounters counters() const;

    /** Zero the counters (benches isolating one phase's traffic). */
    void resetCounters();

    /** Drop the in-memory memo (tests; disk entries are untouched). */
    void clearMemo();

    /** On-disk path of @p key's entry under @p dir. */
    static std::string entryPath(const std::string &dir,
                                 const TaskKey &key);

    /**
     * Cache directory a run should use: @p configured when non-empty,
     * else the TD_CACHE environment variable, else "" (memory only).
     * A missing directory is created (parents included); if that
     * fails, one warning names it and the run falls back to "" — a
     * misconfigured path costs one line, not a warning per cell.
     */
    static std::string resolveDir(const std::string &configured);

    /**
     * Enumerate @p dir's cache entries (files with the entry
     * extension), oldest mtime first (ties broken by path, so the
     * order — and therefore prune's eviction choice — is
     * deterministic).  A missing directory lists empty.
     */
    static std::vector<CacheEntryInfo> listDir(const std::string &dir);

    /**
     * Evict entries from @p dir per @p opts: first everything older
     * than the age bound, then oldest-mtime entries until the
     * remainder totals at most max_bytes (0 empties the directory).
     * With dry_run the stats report the victims but nothing is
     * deleted.  The store is append-only during simulation, so prune
     * is the only way a cache directory shrinks; eviction is always
     * safe — a pruned entry simply re-simulates on next use.
     */
    static CachePruneStats prune(const std::string &dir,
                                 const CachePruneOptions &opts);

    /** Size-bound-only convenience overload. */
    static CachePruneStats prune(const std::string &dir,
                                 uint64_t max_bytes);

  private:
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, OpCellResult> memo_;
    CacheCounters counters_;
    /** Cache dirs that have rejected a write (warned about once). */
    std::unordered_set<std::string> unwritable_dirs_;
};

} // namespace tensordash

#endif // TENSORDASH_CORE_RESULT_STORE_HH_
