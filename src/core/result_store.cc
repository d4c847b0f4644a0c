#include "core/result_store.hh"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <limits>
#include <system_error>

#include <sys/stat.h>

#include "common/env.hh"
#include "common/logging.hh"

namespace tensordash {

namespace {

/** Disk entry header: magic + format version + the key itself (an
 * integrity check against hash-named files moved between dirs). */
constexpr uint32_t kEntryMagic = 0x524c4454; // "TDLR" little-endian

/** Header bytes: magic u32 + version u32 + key u64. */
constexpr size_t kEntryHeaderBytes = 16;

/** File extension of cache entries under a cache directory. */
constexpr const char *kEntryExtension = ".tdlr";

} // namespace

ResultStore &
ResultStore::shared()
{
    static ResultStore store;
    return store;
}

bool
ResultStore::lookup(const TaskKey &key, OpCellResult *out,
                    const std::string &dir)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = memo_.find(key.value);
        if (it != memo_.end()) {
            ++counters_.memo_hits;
            *out = it->second;
            return true;
        }
    }
    auto miss = [this] {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.misses;
        return false;
    };
    if (dir.empty())
        return miss();

    std::vector<uint8_t> bytes;
    if (!readFileBytes(entryPath(dir, key), &bytes))
        return miss();
    ByteReader r(bytes);
    if (r.u32() != kEntryMagic || r.u32() != kResultFormatVersion ||
        r.u64() != key.value)
        return miss();
    OpCellResult result;
    result.deserialize(r);
    if (!r.atEnd())
        return miss();
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.disk_hits;
        memo_.emplace(key.value, result);
    }
    *out = result;
    return true;
}

void
ResultStore::insert(const TaskKey &key, const OpCellResult &result,
                    const std::string &dir)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.inserts;
        memo_.emplace(key.value, result);
    }
    if (dir.empty())
        return;
    ByteWriter w;
    w.u32(kEntryMagic);
    w.u32(kResultFormatVersion);
    w.u64(key.value);
    result.serialize(w);
    if (!writeFileBytes(entryPath(dir, key), w.data())) {
        // A read-only cache dir degrades to memory-only memoisation;
        // correctness never depends on the disk layer.  Every later
        // insert into the dir would fail alike, so it warns once.
        bool first;
        {
            std::lock_guard<std::mutex> lock(mu_);
            first = unwritable_dirs_.insert(dir).second;
        }
        if (first) {
            TD_WARN("cannot write result cache entry '%s'; results "
                    "not written to '%s' stay in memory only",
                    entryPath(dir, key).c_str(), dir.c_str());
        }
    }
}

size_t
ResultStore::memoSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return memo_.size();
}

CacheCounters
ResultStore::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

void
ResultStore::resetCounters()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = CacheCounters{};
}

void
ResultStore::clearMemo()
{
    std::lock_guard<std::mutex> lock(mu_);
    memo_.clear();
}

std::string
ResultStore::entryPath(const std::string &dir, const TaskKey &key)
{
    return dir + "/" + key.hex() + kEntryExtension;
}

std::vector<CacheEntryInfo>
ResultStore::listDir(const std::string &dir)
{
    std::vector<CacheEntryInfo> entries;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec) ||
            de.path().extension() != kEntryExtension)
            continue;
        CacheEntryInfo info;
        info.path = de.path().string();
        struct stat st;
        if (::stat(info.path.c_str(), &st) != 0)
            continue; // raced with a concurrent prune/rename
        info.bytes = (uint64_t)st.st_size;
        info.mtime = (int64_t)st.st_mtime;
        std::vector<uint8_t> head;
        if (readFileHead(info.path, kEntryHeaderBytes, &head)) {
            ByteReader r(head);
            uint32_t magic = r.u32();
            info.version = r.u32();
            info.key = r.u64();
            info.valid = r.ok() && magic == kEntryMagic;
        }
        entries.push_back(std::move(info));
    }
    std::sort(entries.begin(), entries.end(),
              [](const CacheEntryInfo &a, const CacheEntryInfo &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    return entries;
}

CachePruneStats
ResultStore::prune(const std::string &dir,
                   const CachePruneOptions &opts)
{
    CachePruneStats stats;
    std::vector<CacheEntryInfo> entries = listDir(dir);
    stats.scanned = entries.size();
    for (const CacheEntryInfo &e : entries)
        stats.scanned_bytes += e.bytes;
    uint64_t remaining = stats.scanned_bytes;

    auto evict = [&](const CacheEntryInfo &e) {
        if (!opts.dry_run) {
            std::error_code ec;
            if (!std::filesystem::remove(e.path, ec) || ec) {
                TD_WARN("cannot evict cache entry '%s'",
                        e.path.c_str());
                return false;
            }
        }
        remaining -= e.bytes;
        stats.evicted += 1;
        stats.evicted_bytes += e.bytes;
        return true;
    };

    // Stale-version pass first: dead bytes regardless of age, so they
    // must not count against the size bound below, and — unlike the
    // age/size victims — they can sit anywhere in the mtime order.
    if (opts.stale_versions) {
        std::vector<CacheEntryInfo> survivors;
        survivors.reserve(entries.size());
        for (const CacheEntryInfo &e : entries) {
            if (e.valid && e.version != kResultFormatVersion) {
                if (evict(e))
                    stats.stale_evicted += 1;
                else
                    survivors.push_back(e);
            } else {
                survivors.push_back(e);
            }
        }
        entries = std::move(survivors);
    }

    int64_t cutoff = std::numeric_limits<int64_t>::min();
    if (opts.max_age_seconds >= 0) {
        int64_t now = opts.now != 0 ? opts.now : (int64_t)::time(nullptr);
        cutoff = now - opts.max_age_seconds;
    }

    // listDir() orders oldest-first, so one pass implements both
    // bounds: evict while the entry is over-age OR the survivors still
    // exceed the size bound — every later entry is at least as new, so
    // once neither condition holds no further entry can be a victim.
    for (const CacheEntryInfo &e : entries) {
        bool over_age = e.mtime < cutoff;
        bool over_size = remaining > opts.max_bytes;
        if (!over_age && !over_size)
            break;
        if (!evict(e))
            continue;
    }
    return stats;
}

CachePruneStats
ResultStore::prune(const std::string &dir, uint64_t max_bytes)
{
    CachePruneOptions opts;
    opts.max_bytes = max_bytes;
    return prune(dir, opts);
}

std::string
ResultStore::resolveDir(const std::string &configured)
{
    const std::string dir =
        configured.empty() ? env::stringKnob("TD_CACHE") : configured;
    if (dir.empty())
        return dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        TD_WARN("cannot create result cache directory '%s' (%s); "
                "caching in memory only", dir.c_str(),
                ec.message().c_str());
        return "";
    }
    return dir;
}

} // namespace tensordash
