#include "util/env.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "util/logging.hh"
#include "util/strings.hh"

namespace gws {

bool
envBool(const char *name, bool fallback)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return fallback;
    const std::string v = toLower(trim(raw));
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    char *end = nullptr;
    errno = 0;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (end != v.c_str() && *end == '\0' && errno != ERANGE)
        return n != 0;
    GWS_WARN(name, " wants a boolean (0/1/true/false/yes/no/on/off), "
             "got '", raw, "'; using default ", fallback ? "1" : "0");
    return fallback;
}

std::size_t
envSize(const char *name, std::size_t fallback)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return fallback;
    const std::string v = trim(raw);
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || end == v.c_str() || *end != '\0' ||
        errno == ERANGE) {
        GWS_WARN(name, " must be a non-negative integer, got '", raw,
                 "'; using default ", fallback);
        return fallback;
    }
    return static_cast<std::size_t>(n);
}

double
envDouble(const char *name, double fallback)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return fallback;
    const std::string v = trim(raw);
    char *end = nullptr;
    errno = 0;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || end == v.c_str() || *end != '\0' ||
        errno == ERANGE || !std::isfinite(d)) {
        GWS_WARN(name, " must be a finite number, got '", raw,
                 "'; using default ", fallback);
        return fallback;
    }
    return d;
}

} // namespace gws
