/**
 * @file
 * Checked environment-knob readers. Every GWS_* environment variable
 * goes through these helpers so a typo ("GWS_DRAW_CACHE=yes" when the
 * parser wanted an integer) warns loudly via GWS_WARN and falls back
 * to the default, instead of being silently misread the way a bare
 * std::atoi would ("yes" -> 0).
 */

#ifndef GWS_UTIL_ENV_HH
#define GWS_UTIL_ENV_HH

#include <cstddef>
#include <cstdint>

namespace gws {

/**
 * Read a boolean knob. Accepts 0/1, true/false, yes/no, on/off
 * (case-insensitive) and any integer (nonzero = true). Unset or empty
 * returns `fallback`; anything unparseable warns and returns
 * `fallback`.
 */
bool envBool(const char *name, bool fallback);

/**
 * Read a non-negative integer knob. Unset or empty returns
 * `fallback`; garbage, a leading '-', or a value that overflows
 * std::size_t warns and returns `fallback`.
 */
std::size_t envSize(const char *name, std::size_t fallback);

/**
 * Read a finite floating-point knob. Unset or empty returns
 * `fallback`; garbage, trailing junk, overflow, or a non-finite value
 * (nan/inf) warns and returns `fallback`.
 */
double envDouble(const char *name, double fallback);

} // namespace gws

#endif // GWS_UTIL_ENV_HH
