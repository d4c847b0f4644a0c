/**
 * @file
 * td-cache: inspect and bound the on-disk simulation result cache.
 *
 * A cache directory holds immutable packs (core/result_store.hh has
 * the details): a `TDPK` header with the format version and a record
 * count, then per cell its key, payload length, serialized result and
 * an FNV-1a checksum.  A sweep writes one `<hash>.tdpk` (temp file +
 * rename) when its claim loop ends, cancelled sweeps included; a
 * SIGKILLed or crashed process loses its unflushed cells but never
 * leaves a torn pack.  Readers load a new pack when the directory's
 * mtime next changes.  The disk layer is append-only during
 * simulation — a long sweep campaign only ever grows a cache
 * directory.  This tool closes the loop:
 *
 *   td-cache ls DIR                     list entries (path, version,
 *                                       cells, bytes, mtime, state),
 *                                       oldest first
 *   td-cache stats DIR                  per-state entry/cell/byte
 *                                       totals (ok / stale / corrupt)
 *   td-cache prune [--max-bytes N] [--max-age DUR] [--stale-versions]
 *                  [--dry-run] DIR
 *                                       evict stale entries (if
 *                                       requested), then entries
 *                                       older than DUR (s/m/h/d
 *                                       suffixes), then oldest-mtime
 *                                       entries until the directory
 *                                       holds at most N bytes;
 *                                       --dry-run reports the victims
 *                                       without deleting
 *
 * Eviction takes whole packs and is always safe: cells are content
 * addressed, so a pruned pack's cells simply re-simulate (and
 * re-cache) on next use.  Packs written under another
 * kResultFormatVersion are never read again, and neither are the
 * per-cell `.tdlr` files a pre-pack cache wrote — ls marks both
 * "stale", stats totals their dead bytes, and `prune
 * --stale-versions` reclaims exactly those without touching live
 * packs.
 */

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "core/tensordash.hh"

using namespace tensordash;

namespace {

int
usage(FILE *out)
{
    std::fprintf(
        out,
        "usage: td-cache ls [--json] DIR\n"
        "       td-cache stats [--json] DIR\n"
        "       td-cache prune [--max-bytes N] [--max-age DUR] "
        "[--stale-versions] [--dry-run] DIR\n"
        "  ls     list cache entries -- one pack per sweep -- with\n"
        "         path, format version, cells, bytes, mtime and state,\n"
        "         oldest first; --json emits one object per entry\n"
        "  stats  per-state entry, cell and byte totals: ok (packs of\n"
        "         the current format), stale (packs of another format\n"
        "         version and pre-pack per-cell .tdlr files, never\n"
        "         read again) and corrupt; --json emits a single\n"
        "         machine-readable object\n"
        "  prune  delete stale entries (--stale-versions), then\n"
        "         entries older than DUR (suffix s, m, h or d;\n"
        "         plain = seconds), then oldest-mtime entries until\n"
        "         DIR totals at most N bytes (0 empties it); at least\n"
        "         one bound is required.  Evicts whole packs.\n"
        "         --dry-run reports what would be evicted without\n"
        "         deleting.  Safe at any time -- pruned cells\n"
        "         re-simulate on next use\n");
    return out == stdout ? 0 : 1;
}

std::string
fmtTime(int64_t seconds)
{
    std::time_t t = (std::time_t)seconds;
    std::tm tm_utc;
    if (!gmtime_r(&t, &tm_utc))
        return "?";
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%d %H:%M:%S", &tm_utc);
    return buf;
}

/** State names, indexed by CacheEntryState. */
const char *const kStates[3] = {"ok", "stale", "corrupt"};

const char *
entryState(const CacheEntryInfo &e)
{
    return kStates[(int)e.state];
}

/** Escape a string for a JSON literal (keys and paths are hex/ASCII,
 * but a hostile filename must not break the output). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if ((unsigned char)c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

int
runLs(const std::string &dir, bool json)
{
    std::vector<CacheEntryInfo> entries = ResultStore::listDir(dir);
    if (json) {
        std::printf("[");
        for (size_t i = 0; i < entries.size(); ++i) {
            const CacheEntryInfo &e = entries[i];
            const bool known = e.state != CacheEntryState::Corrupt;
            std::printf(
                "%s\n  {\"path\": \"%s\", \"version\": %u, "
                "\"cells\": %" PRIu64 ", \"bytes\": %" PRIu64
                ", \"mtime\": %" PRId64 ", \"state\": \"%s\"}",
                i ? "," : "", jsonEscape(e.path).c_str(),
                known ? e.version : 0, e.cells, e.bytes, e.mtime,
                entryState(e));
        }
        std::printf("%s]\n", entries.empty() ? "" : "\n");
        return 0;
    }
    Table t;
    t.header({"path", "ver", "cells", "bytes", "mtime (UTC)", "state"});
    uint64_t total = 0, cells = 0;
    for (const CacheEntryInfo &e : entries) {
        const bool known = e.state != CacheEntryState::Corrupt;
        total += e.bytes;
        cells += e.cells;
        t.row({e.path, known ? std::to_string(e.version) : "?",
               known ? std::to_string(e.cells) : "?",
               std::to_string(e.bytes), fmtTime(e.mtime),
               entryState(e)});
    }
    t.print();
    std::printf("%zu entr%s, %" PRIu64 " cells, %" PRIu64
                " bytes in %s\n",
                entries.size(), entries.size() == 1 ? "y" : "ies",
                cells, total, dir.c_str());
    return 0;
}

int
runStats(const std::string &dir, bool json)
{
    std::vector<CacheEntryInfo> entries = ResultStore::listDir(dir);
    size_t counts[3] = {0, 0, 0};
    uint64_t cells[3] = {0, 0, 0};
    uint64_t bytes[3] = {0, 0, 0};
    for (const CacheEntryInfo &e : entries) {
        const int s = (int)e.state;
        counts[s] += 1;
        cells[s] += e.cells;
        bytes[s] += e.bytes;
    }
    const uint64_t total_cells = cells[0] + cells[1] + cells[2];
    const uint64_t total_bytes = bytes[0] + bytes[1] + bytes[2];
    if (json) {
        std::printf("{\"dir\": \"%s\", \"format_version\": %u, "
                    "\"entries\": %zu, \"cells\": %" PRIu64
                    ", \"bytes\": %" PRIu64,
                    jsonEscape(dir).c_str(), kResultFormatVersion,
                    entries.size(), total_cells, total_bytes);
        for (int s = 0; s < 3; ++s)
            std::printf(", \"%s\": {\"entries\": %zu, \"cells\": "
                        "%" PRIu64 ", \"bytes\": %" PRIu64 "}",
                        kStates[s], counts[s], cells[s], bytes[s]);
        std::printf("}\n");
        return 0;
    }
    Table t;
    t.header({"state", "entries", "cells", "bytes"});
    for (int s = 0; s < 3; ++s)
        t.row({kStates[s], std::to_string(counts[s]),
               std::to_string(cells[s]), std::to_string(bytes[s])});
    t.print();
    std::printf("%zu entr%s, %" PRIu64 " cells, %" PRIu64
                " bytes in %s (format version %u)\n",
                entries.size(), entries.size() == 1 ? "y" : "ies",
                total_cells, total_bytes, dir.c_str(),
                kResultFormatVersion);
    return 0;
}

int
runPrune(const std::string &dir, const CachePruneOptions &opts)
{
    CachePruneStats stats = ResultStore::prune(dir, opts);
    std::printf("scanned %zu entries (%" PRIu64 " bytes), %s %zu "
                "(%" PRIu64 " bytes, %zu stale), %" PRIu64
                " bytes %s in %s\n",
                stats.scanned, stats.scanned_bytes,
                opts.dry_run ? "would evict" : "evicted",
                stats.evicted, stats.evicted_bytes,
                stats.stale_evicted, stats.remainingBytes(),
                opts.dry_run ? "would remain" : "remain", dir.c_str());
    return 0;
}

/** Parse a non-negative decimal; false on sign, junk or overflow. */
bool
parseU64(const char *s, uint64_t *out)
{
    // strtoull would silently wrap a negative value ("-1" ->
    // ULLONG_MAX, i.e. prune nothing); reject anything but a plain
    // non-negative decimal.
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (s[0] == '-' || end == s || *end != '\0' || errno == ERANGE)
        return false;
    *out = (uint64_t)v;
    return true;
}

/** Parse a duration: plain seconds or an s/m/h/d-suffixed count. */
bool
parseDuration(const char *s, int64_t *out)
{
    size_t len = std::strlen(s);
    if (len == 0)
        return false;
    int64_t unit = 1;
    size_t digits_len = len;
    switch (s[len - 1]) {
      case 'd': unit = 86400; digits_len -= 1; break;
      case 'h': unit = 3600; digits_len -= 1; break;
      case 'm': unit = 60; digits_len -= 1; break;
      case 's': unit = 1; digits_len -= 1; break;
      default: break; // plain seconds; parseU64 rejects junk
    }
    std::string digits(s, digits_len);
    uint64_t v = 0;
    if (digits.empty() || !parseU64(digits.c_str(), &v))
        return false;
    if (v > (uint64_t)(INT64_MAX / unit))
        return false;
    *out = (int64_t)v * unit;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0))
        return usage(stdout);
    if (argc < 2)
        return usage(stderr);

    std::string cmd = argv[1];
    if (cmd == "ls" || cmd == "stats") {
        bool json = false;
        std::string dir;
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--json")
                json = true;
            else if (!arg.empty() && arg[0] == '-') {
                std::fprintf(stderr,
                             "td-cache: unknown %s option '%s'\n",
                             cmd.c_str(), arg.c_str());
                return usage(stderr);
            } else if (dir.empty())
                dir = arg;
            else
                return usage(stderr);
        }
        if (dir.empty())
            return usage(stderr);
        return cmd == "ls" ? runLs(dir, json) : runStats(dir, json);
    }
    if (cmd == "prune") {
        CachePruneOptions opts;
        std::string dir;
        bool have_bound = false;
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--max-bytes") {
                if (++i >= argc ||
                    !parseU64(argv[i], &opts.max_bytes)) {
                    std::fprintf(stderr,
                                 "td-cache: bad or missing value for "
                                 "--max-bytes (want a non-negative "
                                 "byte count)\n");
                    return 1;
                }
                have_bound = true;
            } else if (arg == "--max-age") {
                if (++i >= argc ||
                    !parseDuration(argv[i], &opts.max_age_seconds)) {
                    std::fprintf(stderr,
                                 "td-cache: bad or missing value for "
                                 "--max-age (want a duration like "
                                 "900, 15m, 6h or 30d)\n");
                    return 1;
                }
                have_bound = true;
            } else if (arg == "--stale-versions") {
                opts.stale_versions = true;
                have_bound = true;
            } else if (arg == "--dry-run") {
                opts.dry_run = true;
            } else if (!arg.empty() && arg[0] == '-') {
                std::fprintf(stderr,
                             "td-cache: unknown prune option '%s'\n",
                             arg.c_str());
                return usage(stderr);
            } else if (dir.empty()) {
                dir = arg;
            } else {
                return usage(stderr);
            }
        }
        if (dir.empty() || !have_bound)
            return usage(stderr);
        return runPrune(dir, opts);
    }
    std::fprintf(stderr, "td-cache: unknown command '%s'\n",
                 cmd.c_str());
    return usage(stderr);
}
