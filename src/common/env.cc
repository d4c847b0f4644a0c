#include "common/env.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace tensordash {
namespace env {

namespace {

/** Strict whole-string strtol; false on junk, partial or overflow. */
bool
parseLong(const char *text, long *out)
{
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

/** Strict whole-string strtoull; false on junk, sign or overflow.
 * strtoull would silently wrap "-1" to UINT64_MAX, so a leading minus
 * is rejected up front. */
bool
parseU64(const char *text, uint64_t *out)
{
    if (text[0] == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    *out = (uint64_t)v;
    return true;
}

} // namespace

long
intKnob(const char *name, long min, long max, long fallback)
{
    const char *text = std::getenv(name);
    if (!text)
        return fallback;
    long v = 0;
    if (parseLong(text, &v) && v >= min && v <= max)
        return v;
    TD_WARN("ignoring invalid %s='%s' (want an integer in [%ld, %ld]); "
            "using %ld", name, text, min, max, fallback);
    return fallback;
}

uint64_t
byteKnob(const char *name, uint64_t fallback)
{
    const char *text = std::getenv(name);
    if (!text)
        return fallback;
    uint64_t v = 0;
    if (parseU64(text, &v))
        return v;
    TD_WARN("ignoring invalid %s='%s' (want a non-negative byte "
            "count)", name, text);
    return fallback;
}

std::string
stringKnob(const char *name, const std::string &fallback)
{
    const char *text = std::getenv(name);
    return text ? std::string(text) : fallback;
}

bool
isSet(const char *name)
{
    return std::getenv(name) != nullptr;
}

} // namespace env
} // namespace tensordash
