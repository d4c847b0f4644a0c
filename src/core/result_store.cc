#include "core/result_store.hh"

#include <algorithm>
#include <ctime>
#include <exception>
#include <filesystem>
#include <limits>
#include <system_error>

#include <sys/stat.h>

#include "common/env.hh"
#include "common/hashing.hh"
#include "common/logging.hh"

namespace tensordash {

namespace {

/** Pack header: magic + format version + record count. */
constexpr uint32_t kPackMagic = 0x4b504454; // "TDPK" little-endian
constexpr size_t kPackHeaderBytes = 12;

/** Per-record framing: key u64 + payload length u32 ahead of the
 * payload, FNV-1a checksum u64 behind it. */
constexpr size_t kRecordHeadBytes = 12;
constexpr size_t kRecordFrameBytes = kRecordHeadBytes + 8;

constexpr const char *kPackExtension = ".tdpk";

/** Per-cell files (magic "TDLR", format version, key, payload) that a
 * pre-pack cache wrote; listed as stale so prune can reclaim them. */
constexpr uint32_t kLegacyEntryMagic = 0x524c4454; // "TDLR"
constexpr const char *kLegacyEntryExtension = ".tdlr";

void
writeRecord(ByteWriter &w, uint64_t key, const OpCellResult &result)
{
    ByteWriter payload;
    result.serialize(payload);
    const size_t start = w.size();
    w.u64(key);
    w.u32((uint32_t)payload.size());
    for (uint8_t b : payload.data())
        w.u8(b);
    w.u64(FnvHasher::hashBytes(w.data().data() + start,
                               w.size() - start));
}

/** Call @p fn(key, result) for every intact record of pack @p bytes. */
template <typename Fn>
void
forEachRecord(const std::vector<uint8_t> &bytes, Fn &&fn)
{
    ByteReader header(bytes);
    if (header.u32() != kPackMagic ||
        header.u32() != kResultFormatVersion)
        return;
    const uint32_t count = header.u32();
    if (!header.ok())
        return;
    size_t pos = kPackHeaderBytes;
    for (uint32_t i = 0; i < count; ++i) {
        if (bytes.size() - pos < kRecordFrameBytes)
            return; // truncated
        ByteReader head(bytes.data() + pos, kRecordHeadBytes);
        const uint64_t key = head.u64();
        const uint32_t len = head.u32();
        if (len > bytes.size() - pos - kRecordFrameBytes)
            return; // truncated, or a damaged length: stop framing
        const uint8_t *payload = bytes.data() + pos + kRecordHeadBytes;
        ByteReader sum(payload + len, 8);
        const bool intact =
            sum.u64() ==
            FnvHasher::hashBytes(bytes.data() + pos, kRecordHeadBytes + len);
        pos += kRecordFrameBytes + len;
        if (!intact)
            continue;
        ByteReader r(payload, len);
        OpCellResult result;
        result.deserialize(r);
        if (r.atEnd())
            fn(key, result);
    }
}

} // namespace

ResultStore &
ResultStore::shared()
{
    static ResultStore store;
    return store;
}

ResultStore::~ResultStore()
{
    try {
        flush();
    } catch (const std::exception &e) {
        TD_WARN("cannot flush the result cache: %s", e.what());
    }
}

bool
ResultStore::lookup(const TaskKey &key, OpCellResult *out,
                    const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo_.find(key.value);
    if (it != memo_.end()) {
        ++counters_.memo_hits;
        *out = it->second;
        return true;
    }
    if (!dir.empty()) {
        DiskDir &d = dirs_[dir];
        auto staged = d.staged.find(key.value);
        if (staged == d.staged.end() && scanLocked(dir, d))
            staged = d.staged.find(key.value);
        if (staged != d.staged.end()) {
            ++counters_.disk_hits;
            *out = staged->second;
            memo_.insert(d.staged.extract(staged));
            return true;
        }
    }
    ++counters_.misses;
    return false;
}

bool
ResultStore::scanLocked(const std::string &dir, DiskDir &d)
{
    // Stat before listing: a pack renamed in after this stat moves the
    // mtime past the recorded one, so the next miss lists again.
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0)
        return false;
    const DirStamp now{(uint64_t)st.st_dev, (uint64_t)st.st_ino,
                       (int64_t)st.st_mtim.tv_sec,
                       (int64_t)st.st_mtim.tv_nsec};
    if (d.listed == now)
        return false;
    d.listed = now;

    bool staged = false;
    std::error_code ec;
    std::vector<uint8_t> bytes;
    for (const auto &de : std::filesystem::directory_iterator(dir, ec)) {
        if (de.path().extension() != kPackExtension)
            continue;
        std::string name = de.path().filename().string();
        if (d.seen.count(name) ||
            !readFileBytes(de.path().string(), &bytes))
            continue; // known, or raced with a concurrent prune
        d.seen.insert(std::move(name));
        forEachRecord(bytes, [&](uint64_t key, const OpCellResult &r) {
            if (!memo_.count(key))
                staged |= d.staged.emplace(key, r).second;
        });
    }
    return staged;
}

void
ResultStore::insert(const TaskKey &key, const OpCellResult &result,
                    const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.inserts;
    memo_.emplace(key.value, result);
    if (!dir.empty())
        dirs_[dir].queued.push_back(key.value);
}

bool
ResultStore::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    return flushLocked();
}

bool
ResultStore::flushLocked()
{
    bool all_written = true;
    for (auto &[dir, d] : dirs_) {
        if (d.queued.empty())
            continue;
        std::vector<uint64_t> keys;
        keys.swap(d.queued);
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        ByteWriter w;
        w.u32(kPackMagic);
        w.u32(kResultFormatVersion);
        w.u32((uint32_t)keys.size());
        for (uint64_t key : keys)
            writeRecord(w, key, memo_.at(key));
        std::string name =
            FnvHasher::toHex(FnvHasher::hashBytes(w.data().data(),
                                                  w.size())) +
            kPackExtension;
        const std::string path = dir + "/" + name;
        if (writeFileBytes(path, w.data())) {
            d.seen.insert(std::move(name));
            continue;
        }
        all_written = false;
        if (unwritable_dirs_.insert(dir).second) {
            // A read-only cache dir degrades to memory-only
            // memoisation; correctness never depends on the disk
            // layer.  Every later flush into the dir would fail
            // alike, so it warns once.
            TD_WARN("cannot write result pack '%s'; results not "
                    "written to '%s' stay in memory only",
                    path.c_str(), dir.c_str());
        }
    }
    return all_written;
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
    flushLocked();
    memo_.clear();
    dirs_.clear();
}

std::vector<PackedCell>
ResultStore::decodePack(const std::vector<uint8_t> &bytes)
{
    std::vector<PackedCell> cells;
    forEachRecord(bytes, [&](uint64_t key, const OpCellResult &r) {
        cells.emplace_back(key, r);
    });
    return cells;
}

std::vector<CacheEntryInfo>
ResultStore::listDir(const std::string &dir)
{
    std::vector<CacheEntryInfo> entries;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::filesystem::path ext = de.path().extension();
        const bool pack = ext == kPackExtension;
        if (!de.is_regular_file(ec) ||
            (!pack && ext != kLegacyEntryExtension))
            continue;
        CacheEntryInfo info;
        info.path = de.path().string();
        struct stat st;
        if (::stat(info.path.c_str(), &st) != 0)
            continue; // raced with a concurrent prune/rename
        info.bytes = (uint64_t)st.st_size;
        info.mtime = (int64_t)st.st_mtime;
        std::vector<uint8_t> head;
        if (readFileHead(info.path, kPackHeaderBytes, &head)) {
            ByteReader r(head);
            const uint32_t magic = r.u32();
            info.version = r.u32();
            const uint32_t count = r.u32();
            if (r.ok() && pack && magic == kPackMagic) {
                info.cells = count;
                info.state = info.version == kResultFormatVersion
                    ? CacheEntryState::Ok : CacheEntryState::Stale;
            } else if (r.ok() && !pack && magic == kLegacyEntryMagic) {
                info.cells = 1;
                info.state = CacheEntryState::Stale;
            }
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
            if (e.state == CacheEntryState::Stale) {
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
