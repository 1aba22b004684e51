/**
 * @file
 * Unit tests of the flight-recorder core (chunked append, ring
 * recycling, lane absorption, lockstep checking, file round-trip), of
 * the log header's domain checks, and of the per-coin provenance
 * ledger (lineage threading through mint, transfer, crash, burn, and
 * remint, plus the causal gap report).
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "record/provenance.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"

namespace {

using namespace blitz;
using record::FlightRecorder;
using record::ProvenanceLedger;
using record::Record;
using record::RecordKind;

Record
numbered(std::uint64_t i)
{
    Record r;
    r.tick = i;
    r.kind = RecordKind::Transfer;
    r.p0 = static_cast<std::int64_t>(i);
    r.p1 = static_cast<std::int64_t>(i * 3);
    return r;
}

// ------------------------------------------------------------ recorder

TEST(FlightRecorder, AppendsAcrossChunkBoundaries)
{
    FlightRecorder::Config cfg;
    cfg.chunkRecords = 8;
    FlightRecorder rec(cfg);
    for (std::uint64_t i = 0; i < 37; ++i)
        rec.append(numbered(i));
    ASSERT_EQ(rec.size(), 37u);
    EXPECT_EQ(rec.totalAppended(), 37u);
    EXPECT_EQ(rec.droppedOldest(), 0u);
    for (std::uint64_t i = 0; i < 37; ++i)
        EXPECT_EQ(rec.at(i).tick, i);
}

TEST(FlightRecorder, RingModeRecyclesOldestWholeChunks)
{
    FlightRecorder::Config cfg;
    cfg.chunkRecords = 4;
    cfg.maxChunks = 3; // retains at most 12 records
    FlightRecorder rec(cfg);
    for (std::uint64_t i = 0; i < 40; ++i)
        rec.append(numbered(i));
    EXPECT_EQ(rec.totalAppended(), 40u);
    EXPECT_LE(rec.size(), 12u);
    EXPECT_EQ(rec.totalAppended(),
              rec.droppedOldest() + rec.size());
    EXPECT_EQ(rec.baseIndex(), rec.droppedOldest());
    // The retained window is the contiguous tail of the stream.
    for (std::size_t i = 0; i < rec.size(); ++i)
        EXPECT_EQ(rec.at(i).tick, rec.baseIndex() + i);
}

TEST(FlightRecorder, AbsorbRestampsLanesInReplicationOrder)
{
    FlightRecorder a, b, merged;
    a.mint(10, 0, 16, 0, 0);
    b.mint(20, 1, 8, 1, 1);
    merged.absorb(a, 0);
    merged.absorb(b, 1);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged.at(0).lane, 0u);
    EXPECT_EQ(merged.at(1).lane, 1u);
    EXPECT_EQ(merged.at(1).tick, 20u);

    // Absorbing the same lanes in the same order reproduces the same
    // digest — the sweep-merge determinism contract.
    FlightRecorder again;
    again.absorb(a, 0);
    again.absorb(b, 1);
    EXPECT_EQ(merged.digest(), again.digest());

    // Order (and lane stamping) are part of the stream identity.
    FlightRecorder swapped;
    swapped.absorb(b, 0);
    swapped.absorb(a, 1);
    EXPECT_NE(merged.digest(), swapped.digest());
}

TEST(FlightRecorder, DigestIsOrderAndPayloadSensitive)
{
    FlightRecorder a, b;
    a.transfer(5, 0, 1, 3, 1);
    b.transfer(5, 0, 1, 3, 1);
    EXPECT_EQ(a.digest(), b.digest());
    b.mutableAt(0).p2 ^= 1;
    EXPECT_NE(a.digest(), b.digest());
}

TEST(FlightRecorder, LockstepLatchesTheFirstMismatch)
{
    FlightRecorder ref;
    for (std::uint64_t i = 0; i < 6; ++i)
        ref.append(numbered(i));

    FlightRecorder live;
    live.beginLockstep(&ref);
    for (std::uint64_t i = 0; i < 3; ++i)
        live.append(numbered(i));
    EXPECT_FALSE(live.diverged());

    Record wrong = numbered(3);
    wrong.p1 = -1;
    live.append(wrong);
    EXPECT_TRUE(live.diverged());
    EXPECT_EQ(live.divergedAt(), 3u);

    // The latch holds even if later records happen to match again.
    live.append(numbered(4));
    EXPECT_TRUE(live.diverged());
    EXPECT_EQ(live.divergedAt(), 3u);
}

TEST(FlightRecorder, LockstepFlagsAppendsPastTheReferenceEnd)
{
    FlightRecorder ref;
    ref.append(numbered(0));
    FlightRecorder live;
    live.beginLockstep(&ref);
    live.append(numbered(0));
    EXPECT_FALSE(live.diverged());
    live.append(numbered(1)); // the log has no record #1
    EXPECT_TRUE(live.diverged());
    EXPECT_EQ(live.divergedAt(), 1u);
}

TEST(FlightRecorder, FileRoundTripPreservesStreamAndHeader)
{
    FlightRecorder rec;
    rec.mint(0, 0, 16, 0, 0);
    rec.transfer(100, 0, 1, 4, 1);
    rec.pmActuation(200, 1, 787.5);
    record::LogHeader header{};
    header[0] = 0xfeedface;
    header[15] = 42;

    const std::string path =
        testing::TempDir() + "record_roundtrip.blzr";
    ASSERT_TRUE(rec.writeFile(path, header));

    FlightRecorder in;
    record::LogHeader got{};
    ASSERT_TRUE(FlightRecorder::readFile(path, in, &got));
    EXPECT_EQ(got[0], 0xfeedfaceu);
    EXPECT_EQ(got[15], 42u);
    ASSERT_EQ(in.size(), rec.size());
    EXPECT_EQ(in.digest(), rec.digest());
    EXPECT_EQ(in.at(2).p1, 787'500); // milli-MHz encoding survived

    std::remove(path.c_str());
    FlightRecorder missing;
    EXPECT_FALSE(FlightRecorder::readFile(path, missing, nullptr));
}

// --------------------------------------------------------- log header

/** A valid scenario's header with word @p word replaced by @p value. */
record::LogHeader
headerWith(std::size_t word, std::uint64_t value)
{
    record::LogHeader h = record::ReplayScenario{}.pack();
    h[word] = value;
    return h;
}

/** A valid header with rate word @p word set to @p rate. */
record::LogHeader
headerWithRate(std::size_t word, double rate)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &rate, sizeof bits);
    return headerWith(word, bits);
}

TEST(LogHeader, RoundTripsAValidScenario)
{
    record::ReplayScenario sc;
    sc.d = 6;
    sc.drop = 0.05;
    sc.duplicate = 1.0;
    sc.trials = std::numeric_limits<std::uint32_t>::max();
    sc.snapshotEvery = 0; // no snapshot epochs: still valid
    const auto got = record::ReplayScenario::unpack(sc.pack());
    EXPECT_EQ(got.d, 6u);
    EXPECT_EQ(got.drop, 0.05);
    EXPECT_EQ(got.duplicate, 1.0);
    EXPECT_EQ(got.trials, sc.trials);
    EXPECT_EQ(got.snapshotEvery, 0u);
}

TEST(LogHeader, RejectsMeshDimensionZeroOrPast32Bits)
{
    using record::HeaderError;
    using record::ReplayScenario;
    EXPECT_THROW(ReplayScenario::unpack(headerWith(0, 0)), HeaderError);
    // 2^40 used to truncate to 0 through the uint32 cast.
    EXPECT_THROW(ReplayScenario::unpack(headerWith(0, 1ull << 40)),
                 HeaderError);
    EXPECT_THROW(ReplayScenario::unpack(headerWith(0, 1ull << 32)),
                 HeaderError);
    EXPECT_EQ(ReplayScenario::unpack(headerWith(0, 0xffffffffull)).d,
              0xffffffffu);
}

TEST(LogHeader, RejectsRatesThatAreNotFiniteProbabilities)
{
    using record::HeaderError;
    using record::ReplayScenario;
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          -0.01, 1.01};
    // Words 1, 2, 3: drop, duplicate, corrupt.
    for (std::size_t word = 1; word <= 3; ++word) {
        for (double rate : bad)
            EXPECT_THROW(ReplayScenario::unpack(headerWithRate(word, rate)),
                         HeaderError)
                << "word " << word << " rate " << rate;
        EXPECT_NO_THROW(ReplayScenario::unpack(headerWithRate(word, 0.0)));
        EXPECT_NO_THROW(ReplayScenario::unpack(headerWithRate(word, 1.0)));
    }
}

TEST(LogHeader, RejectsTrialCountZeroOrPast32Bits)
{
    using record::HeaderError;
    using record::ReplayScenario;
    EXPECT_THROW(ReplayScenario::unpack(headerWith(6, 0)), HeaderError);
    EXPECT_THROW(ReplayScenario::unpack(headerWith(6, 1ull << 40)),
                 HeaderError);
    EXPECT_EQ(ReplayScenario::unpack(headerWith(6, 3)).trials, 3u);
}

TEST(LogHeader, ErrorNamesTheField)
{
    try {
        record::ReplayScenario::unpack(headerWith(0, 0));
        FAIL() << "mesh dimension 0 accepted";
    } catch (const record::HeaderError &e) {
        EXPECT_NE(std::string(e.what()).find("mesh dimension"),
                  std::string::npos)
            << e.what();
    }
    try {
        record::ReplayScenario::unpack(headerWithRate(3, -1.0));
        FAIL() << "corrupt rate -1 accepted";
    } catch (const record::HeaderError &e) {
        EXPECT_NE(std::string(e.what()).find("corrupt"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------- provenance

TEST(Provenance, MintTransferThreadsLineagesFifo)
{
    ProvenanceLedger led(3);
    const std::uint64_t first = led.mint(0, 10, 0);
    const std::uint64_t second = led.mint(0, 5, 10);
    ASSERT_NE(first, ProvenanceLedger::kNoLineage);
    ASSERT_NE(second, first);
    EXPECT_EQ(led.held(0), 15);

    // FIFO: moving 12 coins drains all of lineage `first` and 2 of
    // `second`.
    led.transfer(0, 1, 12, /*xid=*/7, /*tick=*/20);
    EXPECT_EQ(led.held(0), 3);
    EXPECT_EQ(led.held(1), 12);
    const auto &h = led.history(first);
    ASSERT_EQ(h.size(), 2u);
    EXPECT_EQ(h[1].kind, record::ProvenanceHop::Kind::Transfer);
    EXPECT_EQ(h[1].from, 0u);
    EXPECT_EQ(h[1].to, 1u);
    EXPECT_EQ(h[1].amount, 10);
    EXPECT_EQ(h[1].xid, 7u);
    ASSERT_EQ(led.history(second).size(), 2u);
    EXPECT_EQ(led.history(second)[1].amount, 2);
}

TEST(Provenance, NegativeTransferReversesDirection)
{
    ProvenanceLedger led(2);
    led.mint(1, 8, 0);
    led.transfer(0, 1, -8, /*xid=*/1, /*tick=*/5);
    EXPECT_EQ(led.held(0), 8);
    EXPECT_EQ(led.held(1), 0);
    EXPECT_EQ(led.unsourced(), 0);
}

TEST(Provenance, UntrackedMovementIsCountedNotCrashed)
{
    ProvenanceLedger led(2);
    led.transfer(0, 1, 4, /*xid=*/1, /*tick=*/5);
    EXPECT_EQ(led.unsourced(), 4);
}

TEST(Provenance, CrashThenRemintClosesTheLoopOldestFirst)
{
    ProvenanceLedger led(2);
    const std::uint64_t l0 = led.mint(0, 6, 0);
    const std::uint64_t l1 = led.mint(0, 4, 1);
    led.crash(0, /*tick=*/100);
    EXPECT_EQ(led.held(0), 0);
    EXPECT_EQ(led.lostOutstanding(), 10);
    EXPECT_EQ(led.lostLineages(),
              (std::vector<std::uint64_t>{l0, l1}));

    // The gap report names the causal chain, not just the count.
    const std::string gap = led.gapReport();
    EXPECT_NE(gap.find("crash"), std::string::npos);
    EXPECT_NE(gap.find("lineage"), std::string::npos);

    // A partial remint consumes the oldest lost lineage first.
    const auto touched = led.remint(1, 6, 200);
    EXPECT_EQ(touched.first, l0);
    EXPECT_EQ(touched.last, l0);
    EXPECT_EQ(led.lostOutstanding(), 4);
    EXPECT_EQ(led.lostLineages(), (std::vector<std::uint64_t>{l1}));
    const auto rest = led.remint(1, 4, 300);
    EXPECT_EQ(rest.first, l1);
    EXPECT_EQ(rest.last, l1);
    EXPECT_EQ(led.lostOutstanding(), 0);
    EXPECT_TRUE(led.lostLineages().empty());
    EXPECT_EQ(led.held(1), 10);
    EXPECT_EQ(led.gapReport(), "");

    const std::string chain = led.describeLineage(l0);
    EXPECT_NE(chain.find("mint"), std::string::npos);
    EXPECT_NE(chain.find("crash"), std::string::npos);
    EXPECT_NE(chain.find("remint"), std::string::npos);
}

TEST(Provenance, RemintRangeSpansConsumedLineages)
{
    ProvenanceLedger led(2);
    const std::uint64_t l0 = led.mint(0, 3, 0);
    const std::uint64_t l1 = led.mint(0, 2, 1);
    led.crash(0, /*tick=*/10);

    // One remint larger than the lost pool consumes both lost
    // lineages and mints the excess fresh; the reported span runs
    // from the oldest lost lineage to the fresh one, so the audit's
    // log line names every lineage the correction touched.
    const auto span = led.remint(1, 7, /*tick=*/20);
    EXPECT_EQ(span.first, l0);
    EXPECT_EQ(span.last, l1 + 1);
    EXPECT_EQ(led.lostOutstanding(), 0);
    EXPECT_EQ(led.held(1), 7);

    // With nothing lost, a remint is a plain fresh mint and still
    // reports its own (single-lineage) span.
    const auto fresh = led.remint(1, 2, /*tick=*/30);
    EXPECT_EQ(fresh.first, fresh.last);
    EXPECT_NE(fresh.first, ProvenanceLedger::kNoLineage);

    // A no-op remint reports the empty span.
    const auto none = led.remint(1, 0, /*tick=*/40);
    EXPECT_EQ(none.first, ProvenanceLedger::kNoLineage);
    EXPECT_EQ(none.last, ProvenanceLedger::kNoLineage);
}

TEST(Provenance, BurnDestroysFifoWithoutLosingTrack)
{
    ProvenanceLedger led(1);
    const std::uint64_t l0 = led.mint(0, 5, 0);
    led.burn(0, 3, 50);
    EXPECT_EQ(led.held(0), 2);
    EXPECT_EQ(led.lostOutstanding(), 0); // burns are deliberate
    const auto &h = led.history(l0);
    ASSERT_GE(h.size(), 2u);
    EXPECT_EQ(h.back().kind, record::ProvenanceHop::Kind::Burn);
    EXPECT_EQ(h.back().amount, 3);
}

} // namespace
