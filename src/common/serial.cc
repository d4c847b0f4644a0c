#include "common/serial.hh"

#include <atomic>
#include <cstdio>

#include <sys/stat.h>
#include <unistd.h>

namespace tensordash {

bool
readFileBytes(const std::string &path, std::vector<uint8_t> *out)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out->clear();
    // Size the buffer once: a cache pack is read whole on every scan.
    struct stat st;
    if (::fstat(::fileno(f), &st) == 0 && st.st_size > 0)
        out->reserve((size_t)st.st_size);
    uint8_t chunk[64 * 1024];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        out->insert(out->end(), chunk, chunk + n);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

bool
readFileHead(const std::string &path, size_t max_bytes,
             std::vector<uint8_t> *out)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out->assign(max_bytes, 0);
    size_t n = std::fread(out->data(), 1, max_bytes, f);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    out->resize(n);
    return ok;
}

bool
writeFileBytes(const std::string &path, const std::vector<uint8_t> &data)
{
    // Unique temp name per writer: concurrent tasks (or processes
    // sharing a cache dir) may insert the same key at the same time.
    static std::atomic<uint64_t> counter{0};
    std::string tmp = path + ".tmp." + std::to_string((long)getpid()) +
                      "." + std::to_string(counter.fetch_add(1));
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace tensordash
