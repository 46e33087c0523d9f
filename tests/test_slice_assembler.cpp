/** @file Edge-case tests for the per-session record-to-slice
 * reassembly (SliceAssembler): boundary records, duplicate and
 * missing group members, gaps, the partial final slice, and records
 * that break the record contract. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "service/slice_assembler.h"

namespace bperf {
namespace service {
namespace {

sim::PerfRecord
rec(std::uint32_t slice, sim::EventId event, double value,
    double enabled = 1.0, double running = 0.5)
{
    sim::PerfRecord r;
    r.slice = slice;
    r.event = event;
    r.value = value;
    r.timeEnabled = enabled;
    r.timeRunning = running;
    return r;
}

TEST(SliceAssemblerEdge, WindowBoundaryRecordsStayInTheirSlice)
{
    // Two PMI window reads of the same (event, slice) followed by the
    // first read of the next slice: the boundary record must finalize
    // the old slice without leaking into it.
    SliceAssembler assembler({5});
    std::vector<core::SliceMeasurements> out;

    EXPECT_EQ(assembler.feed(rec(0, 5, 10.0), out), 0u);
    EXPECT_EQ(assembler.feed(rec(0, 5, 14.0), out), 0u);
    EXPECT_EQ(assembler.feed(rec(1, 5, 99.0), out), 1u);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0][0].windows.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0][0].windows[0], 10.0);
    EXPECT_DOUBLE_EQ(out[0][0].windows[1], 14.0);
    EXPECT_DOUBLE_EQ(out[0][0].rawCount, 24.0);

    // The boundary record opened slice 1 and stays there.
    EXPECT_EQ(assembler.flush(out), 1u);
    ASSERT_EQ(out.size(), 2u);
    ASSERT_EQ(out[1][0].windows.size(), 2u); // single read split in two
    EXPECT_DOUBLE_EQ(out[1][0].windows[0] + out[1][0].windows[1], 99.0);
    EXPECT_DOUBLE_EQ(out[1][0].rawCount, 99.0);
}

TEST(SliceAssemblerEdge, DuplicateGroupMembersAccumulate)
{
    // The same event delivered many times within one slice (deep PMI
    // backlog): every read lands in the sample, in arrival order.
    SliceAssembler assembler({2, 9});
    std::vector<core::SliceMeasurements> out;

    for (int i = 1; i <= 4; ++i)
        EXPECT_EQ(assembler.feed(rec(0, 9, i), out), 0u);
    assembler.feed(rec(1, 2, 1.0), out);
    ASSERT_EQ(out.size(), 1u);
    const sim::SliceSample &dup = out[0][1];
    EXPECT_TRUE(dup.observed);
    ASSERT_EQ(dup.windows.size(), 4u);
    for (int i = 1; i <= 4; ++i)
        EXPECT_DOUBLE_EQ(dup.windows[i - 1], i);
    EXPECT_DOUBLE_EQ(dup.rawCount, 10.0);
    // The other group member never reported: unobserved default.
    EXPECT_FALSE(out[0][0].observed);
    EXPECT_TRUE(out[0][0].windows.empty());
    EXPECT_EQ(assembler.recordsAccepted(), 5u);
    EXPECT_EQ(assembler.recordsRejected(), 0u);
}

TEST(SliceAssemblerEdge, MissingGroupMembersStayUnobserved)
{
    SliceAssembler assembler({1, 2, 3});
    std::vector<core::SliceMeasurements> out;

    assembler.feed(rec(0, 1, 5.0), out);
    assembler.feed(rec(0, 3, 7.0), out);
    assembler.feed(rec(1, 2, 9.0), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0][0].observed);
    EXPECT_FALSE(out[0][1].observed);
    EXPECT_TRUE(out[0][2].observed);

    // In the next slice the roles flip; nothing carries over.
    assembler.flush(out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_FALSE(out[1][0].observed);
    EXPECT_TRUE(out[1][1].observed);
    EXPECT_FALSE(out[1][2].observed);
}

TEST(SliceAssemblerEdge, PartialFinalSliceOnlyOnFlush)
{
    SliceAssembler assembler({4});
    std::vector<core::SliceMeasurements> out;

    assembler.feed(rec(0, 4, 1.0), out);
    assembler.feed(rec(1, 4, 2.0), out);
    ASSERT_EQ(out.size(), 1u);

    // The slice under assembly is invisible until flushed...
    EXPECT_EQ(assembler.frontSlice(), 1u);
    EXPECT_EQ(assembler.flush(out), 1u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[1][0].observed);
    EXPECT_EQ(assembler.frontSlice(), 2u);

    // ...a second flush with nothing pending is a no-op...
    EXPECT_EQ(assembler.flush(out), 0u);
    EXPECT_EQ(out.size(), 2u);

    // ...and the flushed slice is closed: a late record for it is
    // stale, while the stream continues cleanly afterwards.
    EXPECT_EQ(assembler.feed(rec(1, 4, 8.0), out), 0u);
    EXPECT_EQ(assembler.recordsRejected(), 1u);
    EXPECT_EQ(assembler.feed(rec(2, 4, 3.0), out), 0u);
    EXPECT_EQ(assembler.flush(out), 1u);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[2][0].rawCount, 3.0);
}

TEST(SliceAssemblerEdge, GapAfterFlushEmitsUnobservedRows)
{
    SliceAssembler assembler({6});
    std::vector<core::SliceMeasurements> out;

    assembler.feed(rec(0, 6, 1.0), out);
    assembler.flush(out);
    // Stream resumes at slice 4: slices 1-3 were silent and must be
    // emitted as unobserved to keep the time base dense.
    EXPECT_EQ(assembler.feed(rec(4, 6, 2.0), out), 3u);
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t t = 1; t <= 3; ++t)
        EXPECT_FALSE(out[t][0].observed);
    EXPECT_EQ(assembler.frontSlice(), 4u);
}

TEST(SliceAssemblerEdge, OutOfOrderWithinOpenSliceRejected)
{
    SliceAssembler assembler({1, 7});
    std::vector<core::SliceMeasurements> out;

    assembler.feed(rec(2, 1, 1.0), out); // opens slice 2 (gap 0-1)
    ASSERT_EQ(out.size(), 2u);
    // Records older than the open slice are stale even though they
    // were never emitted as observed.
    EXPECT_EQ(assembler.feed(rec(1, 7, 5.0), out), 0u);
    // Unknown events are rejected without disturbing assembly.
    EXPECT_EQ(assembler.feed(rec(2, 42, 5.0), out), 0u);
    EXPECT_EQ(assembler.recordsRejected(), 2u);

    assembler.feed(rec(2, 7, 6.0), out);
    assembler.flush(out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(out[2][0].observed);
    EXPECT_TRUE(out[2][1].observed);
}

TEST(SliceAssemblerEdge, DutyCycleMetadataTracksLastRead)
{
    SliceAssembler assembler({3});
    std::vector<core::SliceMeasurements> out;

    assembler.feed(rec(0, 3, 4.0, 1.0, 0.25), out);
    assembler.feed(rec(0, 3, 6.0, 2.0, 0.75), out);
    assembler.flush(out);
    ASSERT_EQ(out.size(), 1u);
    // The slice-level enabled/running ratio comes from the most
    // recent read (cumulative perf times).
    EXPECT_DOUBLE_EQ(out[0][0].timeEnabled, 2.0);
    EXPECT_DOUBLE_EQ(out[0][0].timeRunning, 0.75);
    EXPECT_DOUBLE_EQ(out[0][0].rawCount, 10.0);
}

/**
 * Feed `bad` before the first record, inside the open slice and for a
 * later slice: each time it must be rejected without touching any
 * assembly state (origin, reads, duty-cycle metadata, the open slice).
 */
void
expectRejectedUntouched(sim::PerfRecord bad)
{
    SliceAssembler assembler({5}, /*align_to_first_record=*/true);
    std::vector<core::SliceMeasurements> out;

    bad.event = 5;
    bad.slice = 7;
    EXPECT_EQ(assembler.feed(bad, out), 0u);
    assembler.feed(rec(2, 5, 10.0), out);
    EXPECT_EQ(assembler.originSlice(), 2u); // not pinned at slice 7
    assembler.feed(rec(2, 5, 14.0), out);
    bad.slice = 2;
    EXPECT_EQ(assembler.feed(bad, out), 0u);
    bad.slice = 3;
    EXPECT_EQ(assembler.feed(bad, out), 0u);
    EXPECT_TRUE(out.empty()); // slice 2 still open

    EXPECT_EQ(assembler.recordsRejected(), 3u);
    EXPECT_EQ(assembler.recordsAccepted(), 2u);
    EXPECT_EQ(assembler.flush(out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0][0].windows, (std::vector<double>{10.0, 14.0}));
    EXPECT_DOUBLE_EQ(out[0][0].rawCount, 24.0);
    EXPECT_DOUBLE_EQ(out[0][0].timeEnabled, 1.0);
    EXPECT_DOUBLE_EQ(out[0][0].timeRunning, 0.5);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(SliceAssemblerContract, RejectsNonFiniteValue)
{
    for (double v : {kNaN, kInf, -kInf})
        expectRejectedUntouched(rec(0, 5, v));
}

TEST(SliceAssemblerContract, RejectsNonFiniteTimeEnabled)
{
    for (double enabled : {kNaN, kInf})
        expectRejectedUntouched(rec(0, 5, 1.0, enabled, 0.5));
}

TEST(SliceAssemblerContract, RejectsNonFiniteTimeRunning)
{
    for (double running : {kNaN, kInf, -kInf})
        expectRejectedUntouched(rec(0, 5, 1.0, 1.0, running));
}

TEST(SliceAssemblerContract, RejectsNegativeValue)
{
    for (double v : {-1e12, -1.0})
        expectRejectedUntouched(rec(0, 5, v));
}

TEST(SliceAssemblerContract, RejectsValueBeyondA64BitCounter)
{
    // A PMI read is a 64-bit counter delta, so no value exceeds 2^64.
    // 1e300 and 1.7e308 used to abort the window model.
    for (double v : {std::nextafter(0x1p64, kInf), 1e300, 1.7e308})
        expectRejectedUntouched(rec(0, 5, v));

    // The largest 64-bit count (it rounds to 2^64) is accepted.
    SliceAssembler assembler({5});
    std::vector<core::SliceMeasurements> out;
    assembler.feed(
        rec(0, 5,
            static_cast<double>(std::numeric_limits<std::uint64_t>::max())),
        out);
    EXPECT_EQ(assembler.recordsRejected(), 0u);
    EXPECT_EQ(assembler.recordsAccepted(), 1u);
}

TEST(SliceAssemblerContract, RejectsNegativeTimeRunning)
{
    expectRejectedUntouched(rec(0, 5, 1.0, 1.0, -0.25));
}

TEST(SliceAssemblerContract, RejectsRunningBeyondEnabled)
{
    expectRejectedUntouched(rec(0, 5, 1.0, 1.0, 1.5));
    expectRejectedUntouched(rec(0, 5, 1.0, 0.0, 0.5));

    // The bounds themselves are inside the contract: a zero count, a
    // counter that never ran, and one that ran the whole time.
    SliceAssembler assembler({5});
    std::vector<core::SliceMeasurements> out;
    assembler.feed(rec(0, 5, 0.0, 1.0, 0.0), out);
    assembler.feed(rec(0, 5, 0.0, 1.0, 1.0), out);
    EXPECT_EQ(assembler.recordsRejected(), 0u);
    EXPECT_EQ(assembler.recordsAccepted(), 2u);
}

} // namespace
} // namespace service
} // namespace bperf
