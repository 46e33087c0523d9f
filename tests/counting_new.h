/** @file A counting global operator new for tests that assert a code
 * path allocates nothing: every heap allocation in the binary, from
 * any container or library, bumps gOperatorNewCalls.  The
 * replacement operators are ordinary definitions, so include this
 * header from exactly one source file of a test binary. */

#ifndef BPERF_TESTS_COUNTING_NEW_H
#define BPERF_TESTS_COUNTING_NEW_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

/** Every global operator new call in this test binary. */
static std::atomic<std::uint64_t> gOperatorNewCalls{0};

void *
operator new(std::size_t size)
{
    gOperatorNewCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// The deletes stay out of line: inlined into a delete-expression,
// GCC pairs their free() with the new-expression and warns
// (-Wmismatched-new-delete), though the new above is malloc.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // BPERF_TESTS_COUNTING_NEW_H
