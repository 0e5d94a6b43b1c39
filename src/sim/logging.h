/**
 * @file
 * Error and status reporting helpers, following the gem5 convention:
 * panic() for internal invariant violations (simulator bugs), fatal()
 * for user/configuration errors, warn()/inform() for status messages.
 *
 * The CORD_VERBOSITY environment variable gates the non-fatal chatter
 * (useful for bench campaigns and CI logs): 0 silences warn and inform,
 * 1 keeps warnings only, 2 (the default) prints everything.  panic and
 * fatal are never suppressed.
 */

#ifndef CORD_SIM_LOGGING_H
#define CORD_SIM_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace cord
{

/** Effective CORD_VERBOSITY level (0 = quiet, 1 = warnings, 2 = all). */
int logVerbosity();

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Build a message from streamable parts. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Abort: something happened that should never happen (a simulator bug). */
#define cord_panic(...) \
    ::cord::detail::panicImpl(__FILE__, __LINE__, \
                              ::cord::detail::format(__VA_ARGS__))

/** Exit(1): the simulation cannot continue due to a user error. */
#define cord_fatal(...) \
    ::cord::detail::fatalImpl(__FILE__, __LINE__, \
                              ::cord::detail::format(__VA_ARGS__))

/** Non-fatal warning about questionable behaviour. */
#define cord_warn(...) \
    ::cord::detail::warnImpl(::cord::detail::format(__VA_ARGS__))

/** Informational status message. */
#define cord_inform(...) \
    ::cord::detail::informImpl(::cord::detail::format(__VA_ARGS__))

/**
 * Internal invariant check.
 *
 * Compile-time gated by CORD_ASSERT_LEVEL (a CMake cache variable of
 * the same name): level >= 1 (the default) checks every invariant;
 * level 0 compiles checks out entirely so hot-loop asserts like the
 * event queue's `when >= now_` are free in benchmark builds
 * (configure with -DCORD_ASSERT_LEVEL=0).
 * The default stays ON in every build type -- including
 * RelWithDebInfo, which defines NDEBUG -- because correctness CI
 * (Debug/ASan/TSan and the death tests in tests/) relies on it.
 * Disabled asserts still type-check their arguments (dead branch), so
 * they cannot rot, and never evaluate them at runtime.
 */
#ifndef CORD_ASSERT_LEVEL
#define CORD_ASSERT_LEVEL 1
#endif

#if CORD_ASSERT_LEVEL >= 1
#define cord_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::cord::detail::panicImpl(__FILE__, __LINE__, \
                ::cord::detail::format("assertion '" #cond "' failed: ", \
                                       ##__VA_ARGS__)); \
        } \
    } while (0)
#else
#define cord_assert(cond, ...) \
    do { \
        if (false) { \
            (void)!(cond); \
            (void)::cord::detail::format(__VA_ARGS__); \
        } \
    } while (0)
#endif

} // namespace cord

#endif // CORD_SIM_LOGGING_H
