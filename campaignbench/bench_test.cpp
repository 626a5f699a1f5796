// Tests of the campaign benchmark's own logic: self-time accounting, seeded
// spec generation, and the output check.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "bench_lib.hpp"
#include "exp/spec.hpp"
#include "util/json.hpp"

namespace {

using campaignbench::Layer;
using campaignbench::Span;

Span span(Layer l, std::int32_t parent, std::uint64_t t0, std::uint64_t t1) {
    Span s;
    s.layer = l;
    s.parent = parent;
    s.t0 = t0;
    s.t1 = t1;
    return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
    const std::vector<Span> spans = {
        span(Layer::FaultRun, -1, 0, 100),
        span(Layer::Restore, 0, 10, 30),
        span(Layer::Tail, 0, 20, 50),    // overlaps the previous child
        span(Layer::Classify, 0, 90, 120), // runs past its parent's end
        span(Layer::FastForward, 2, 25, 35), // grandchild: only its parent pays
    };
    const std::vector<std::uint64_t> self = campaignbench::self_times(spans);
    EXPECT_EQ(self[0], 100u - 40u - 10u);
    EXPECT_EQ(self[1], 20u);
    EXPECT_EQ(self[2], 30u - 10u);
    EXPECT_EQ(self[3], 30u);
    EXPECT_EQ(self[4], 10u);
}

TEST(SelfTime, SpanLogNestsByScope) {
    campaignbench::SpanLog log;
    {
        const auto root = log.open(Layer::FaultRun, 3, 7);
        { const auto a = log.open(Layer::Restore, 3, 7); }
        { const auto b = log.open(Layer::Tail, 3, 7); }
    }
    ASSERT_EQ(log.spans.size(), 3u);
    EXPECT_EQ(log.spans[0].parent, -1);
    EXPECT_EQ(log.spans[1].parent, 0);
    EXPECT_EQ(log.spans[2].parent, 0);
    EXPECT_EQ(log.spans[2].job, 3u);
    EXPECT_EQ(log.spans[2].fault, 7u);
    const std::vector<std::uint64_t> self = campaignbench::self_times(log.spans);
    EXPECT_EQ(self[0] + self[1] + self[2],
              log.spans[0].t1 - log.spans[0].t0);
}

std::string read(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(SpecGeneration, SeedChangesOnlyFaultSeed) {
    for (const campaignbench::Workload& w : campaignbench::workloads()) {
        const std::string mini =
            read(std::string(CAMPAIGNBENCH_REPO) + "/" + w.mini_spec);
        ASSERT_FALSE(mini.empty()) << w.mini_spec;
        // Offset 0 is the checked-in spec's canonical JSON.
        EXPECT_EQ(campaignbench::generate_spec(mini, 0, 0, ""),
                  serep::exp::ExperimentSpec::load(mini).canonical_json());
        std::string want = campaignbench::generate_spec(mini, 0, 0, "");
        const std::uint64_t seed =
            serep::util::json_parse(want).at("fault").at("seed").as_u64();
        const std::string key = "\"seed\":" + std::to_string(seed);
        ASSERT_EQ(want.find(key), want.rfind(key)) << w.name;
        want.replace(want.find(key), key.size(),
                     "\"seed\":" + std::to_string(seed + 5));
        EXPECT_EQ(campaignbench::generate_spec(mini, 5, 0, ""), want) << w.name;
    }
}

TEST(SpecGeneration, ThreadsAndPrefixTouchOnlyPoolAndOutputs) {
    const std::string mini = read(std::string(CAMPAIGNBENCH_REPO) +
                                  "/examples/specs/paper_mini.json");
    const auto spec = serep::util::json_parse(
        campaignbench::generate_spec(mini, 0, 1, "work/run"));
    EXPECT_EQ(spec.at("fault").at("faults").as_u64(), 60u);
    EXPECT_EQ(spec.at("engine").at("threads").as_u64(), 1u);
    EXPECT_EQ(spec.at("out").as_string(), "work/run");
    EXPECT_EQ(spec.at("report").at("markdown").as_string(), "work/run_report.md");
}

TEST(SpecGeneration, RunSeedsDrawDisjointInputSeeds) {
    for (const campaignbench::Workload& w : campaignbench::workloads()) {
        EXPECT_EQ(campaignbench::input_seed(w, 0, 0), 0u) << w.name;
        std::vector<std::uint64_t> seen;
        for (std::uint64_t run = 0; run < 4; ++run)
            for (unsigned k = 0; k < w.inputs; ++k)
                seen.push_back(campaignbench::input_seed(w, run, k));
        std::sort(seen.begin(), seen.end());
        EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
            << w.name;
    }
}

const char* kCsv =
    "scenario,at,kind,core,reg,bit,phys,outcome,retired\n"
    "ARMv7-EP-SER-1,477,gpr,0,3,20,0,Vanished,134975\n"
    "ARMv7-EP-SER-1,709,gpr,0,2,28,0,OMM,134975\n";

TEST(OutputCheck, AcceptsAnIdenticalDatabase) {
    EXPECT_EQ(campaignbench::compare_databases(kCsv, kCsv, 2), "");
}

TEST(OutputCheck, RejectsOneFlippedOutcome) {
    std::string flipped = kCsv;
    flipped.replace(flipped.find("OMM"), 3, "ONA");
    const std::string why = campaignbench::compare_databases(flipped, kCsv, 2);
    EXPECT_NE(why.find("record 1"), std::string::npos) << why;
}

TEST(OutputCheck, RejectsAMissingRecord) {
    const std::string csv(kCsv);
    const std::string short_db = csv.substr(0, csv.rfind("ARMv7"));
    EXPECT_NE(campaignbench::compare_databases(short_db, kCsv, 2), "");
    EXPECT_NE(campaignbench::compare_databases(kCsv, kCsv, 3), "");
}

} // namespace
