/**
 * @file
 * End-to-end exercise of the installed `blitz-replay` binary (path
 * injected at compile time via BLITZ_REPLAY_TOOL): record a chaos
 * scenario to disk, verify it in lockstep, then record a tampered twin
 * and prove `bisect` exits 1 and names the exact divergent record.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace {

/** Run `blitz-replay <args>`, capture combined output, return exit code. */
int
runTool(const std::string &args, std::string *output = nullptr)
{
    // PID-unique capture path: ctest runs this suite's tests as
    // concurrent processes, and a shared file would interleave them.
    const std::string outPath = testing::TempDir() + "replay_tool_out." +
                                std::to_string(getpid()) + ".txt";
    const std::string cmd = std::string(BLITZ_REPLAY_TOOL) + " " + args +
                            " > " + outPath + " 2>&1";
    const int status = std::system(cmd.c_str());
    if (output) {
        std::ifstream in(outPath);
        std::ostringstream ss;
        ss << in.rdbuf();
        *output = ss.str();
    }
    std::remove(outPath.c_str());
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return -1;
}

const char *kScenario =
    "--d 4 --drop 0.05 --crash --partition --seed 7 --trials 2";

TEST(ReplayTool, RecordThenVerifyRoundTrips)
{
    const std::string log = testing::TempDir() + "tool_clean.blzr";
    std::string out;
    ASSERT_EQ(runTool("record " + log + " " + std::string(kScenario),
                      &out),
              0)
        << out;
    EXPECT_NE(out.find("recorded"), std::string::npos);
    EXPECT_NE(out.find("digest"), std::string::npos);

    EXPECT_EQ(runTool("info " + log, &out), 0) << out;
    EXPECT_NE(out.find("records"), std::string::npos);

    // Lockstep re-execution matches at several thread counts.
    EXPECT_EQ(runTool("verify " + log + " --threads 1", &out), 0) << out;
    EXPECT_EQ(runTool("verify " + log + " --threads 4", &out), 0) << out;
    EXPECT_NE(out.find("lockstep match"), std::string::npos);

    // A log diffed against itself is identical (exit 0).
    EXPECT_EQ(runTool("diff " + log + " " + log, &out), 0) << out;
    EXPECT_NE(out.find("identical"), std::string::npos);
    std::remove(log.c_str());
}

TEST(ReplayTool, BisectPinpointsTheFirstDivergentEvent)
{
    const std::string clean = testing::TempDir() + "tool_a.blzr";
    const std::string tampered = testing::TempDir() + "tool_b.blzr";
    const std::string scenario(kScenario);
    std::string out;
    ASSERT_EQ(runTool("record " + clean + " " + scenario, &out), 0)
        << out;
    ASSERT_EQ(runTool("record " + tampered + " " + scenario +
                          " --tamper 1000",
                      &out),
              0)
        << out;
    EXPECT_NE(out.find("tampered record #1000"), std::string::npos);

    // Divergence is exit code 1, and the report names record #1000.
    EXPECT_EQ(runTool("diff " + clean + " " + tampered, &out), 1) << out;
    EXPECT_NE(out.find("record #1000"), std::string::npos);

    EXPECT_EQ(runTool("bisect " + clean + " " + tampered, &out), 1)
        << out;
    EXPECT_NE(out.find("first divergence: record #1000"),
              std::string::npos);
    EXPECT_NE(out.find("A:"), std::string::npos);
    EXPECT_NE(out.find("B:"), std::string::npos);

    // The --bisect spelling is accepted too.
    EXPECT_EQ(runTool("--bisect " + clean + " " + tampered, &out), 1)
        << out;
    EXPECT_NE(out.find("first divergence: record #1000"),
              std::string::npos);

    // Tampering breaks lockstep verification of the tampered log.
    EXPECT_EQ(runTool("verify " + tampered, &out), 1) << out;
    EXPECT_NE(out.find("DIVERGED at record #1000"), std::string::npos);

    std::remove(clean.c_str());
    std::remove(tampered.c_str());
}

TEST(ReplayTool, UsageAndIoErrorsExitTwo)
{
    std::string out;
    EXPECT_EQ(runTool("", &out), 2);
    EXPECT_EQ(runTool("frobnicate", &out), 2);
    EXPECT_NE(out.find("usage"), std::string::npos);
    EXPECT_EQ(runTool("verify " + testing::TempDir() +
                          "definitely_missing.blzr",
                      &out),
              2)
        << out;
}

/** Overwrite header word @p word of the .blzr at @p path. */
void
patchHeaderWord(const std::string &path, int word, std::uint64_t value)
{
    // Layout: 4-byte magic, 4-byte version, then 16 header words.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekp(8 + 8 * word);
    f.write(reinterpret_cast<const char *>(&value), sizeof value);
    ASSERT_TRUE(f.good());
}

TEST(ReplayTool, OutOfDomainHeaderExitsTwo)
{
    const std::string log = testing::TempDir() + "tool_bad_header.blzr";
    std::string out;
    // Mesh dimension 0 and 2^40 (which a uint32 cast truncates to 0),
    // then a zero trial count: every command that reads the scenario
    // reports the bad field and exits 2 instead of aborting.
    const std::pair<int, std::uint64_t> bad[] = {
        {0, 0}, {0, 1ull << 40}, {6, 0}};
    for (const auto &[word, value] : bad) {
        ASSERT_EQ(runTool("record " + log + " --d 3 --trials 1", &out),
                  0)
            << out;
        patchHeaderWord(log, word, value);
        EXPECT_EQ(runTool("verify " + log, &out), 2) << out;
        EXPECT_NE(out.find("log header"), std::string::npos) << out;
        EXPECT_EQ(runTool("info " + log, &out), 2) << out;
        EXPECT_NE(out.find("log header"), std::string::npos) << out;
    }
    // The record flags get the same checks.
    EXPECT_EQ(runTool("record " + log + " --d 0", &out), 2) << out;
    EXPECT_EQ(runTool("record " + log + " --drop 1.5", &out), 2) << out;
    std::remove(log.c_str());
}

} // namespace
