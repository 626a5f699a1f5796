// Fault-injection framework tests: classification invariants, determinism,
// forced-fault sanity, campaign mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/campaign.hpp"
#include "mine/mining.hpp"
#include "orch/checkpoint.hpp"
#include "prof/profile.hpp"
#include "telemetry/telemetry.hpp"

using namespace serep;
using core::CampaignConfig;
using core::Outcome;
using npb::Api;
using npb::App;
using npb::Klass;
using npb::Scenario;

namespace {

const Scenario kSmall{isa::Profile::V8, App::EP, Api::Serial, 1, Klass::Mini};

sim::Machine golden_of(const Scenario& s) {
    sim::Machine m = npb::make_machine(s, false);
    m.run_until(~0ULL >> 1);
    return m;
}

} // namespace

TEST(Fault, GoldenCaptureIsStable) {
    auto m1 = golden_of(kSmall);
    auto m2 = golden_of(kSmall);
    const auto g1 = core::capture_golden(m1);
    const auto g2 = core::capture_golden(m2);
    EXPECT_EQ(g1.total_retired, g2.total_retired);
    EXPECT_EQ(g1.arch_hash, g2.arch_hash);
    ASSERT_TRUE(g1.image && g2.image);
    EXPECT_EQ(g1.image->page_at, g2.image->page_at);
    EXPECT_EQ(g1.image->bytes, g2.image->bytes);
    EXPECT_GT(g1.image->bytes.size(), 0u);
    EXPECT_EQ(g1.outputs, g2.outputs);
    EXPECT_GT(g1.app_start, 0u);
    EXPECT_LT(g1.app_start, g1.total_retired);
}

TEST(Fault, FaultFreeRunClassifiesVanished) {
    auto m = golden_of(kSmall);
    const auto g = core::capture_golden(m);
    auto n = golden_of(kSmall);
    EXPECT_EQ(core::classify(n, g, false), Outcome::Vanished);
}

TEST(Fault, FlipIsVisibleInArchHash) {
    auto m = golden_of(kSmall);
    const auto h0 = core::arch_state_hash(m);
    m.flip_gpr(0, 5, 17);
    EXPECT_NE(core::arch_state_hash(m), h0);
    m.flip_gpr(0, 5, 17);
    EXPECT_EQ(core::arch_state_hash(m), h0);
}

TEST(Fault, PcCorruptionBecomesUtOrHang) {
    // Flip a high PC bit mid-run on V7 (PC is architectural there).
    const Scenario s{isa::Profile::V7, App::IS, Api::Serial, 1, Klass::Mini};
    auto gm = golden_of(s);
    const auto g = core::capture_golden(gm);
    sim::Machine m = npb::make_machine(s, false);
    m.run_until(g.app_start + (g.total_retired - g.app_start) / 2);
    m.flip_gpr(0, 15, 27); // PC bit 27 -> wild fetch
    m.run_until(g.total_retired * 4);
    const auto o = core::classify(m, g, m.status() == sim::RunStatus::Running);
    EXPECT_TRUE(o == Outcome::UT || o == Outcome::Hang)
        << core::outcome_name(o);
}

TEST(Fault, DeadRegisterFaultVanishesOrLeavesTrace) {
    // Flipping a high callee-saved register the small app barely uses,
    // right before the end, must not break the output.
    auto gm = golden_of(kSmall);
    const auto g = core::capture_golden(gm);
    sim::Machine m = npb::make_machine(kSmall, false);
    m.run_until(g.total_retired - 50);
    m.flip_gpr(0, 28, 60); // x28, high bit
    m.run_until(g.total_retired * 4);
    const auto o = core::classify(m, g, false);
    EXPECT_TRUE(o == Outcome::Vanished || o == Outcome::ONA)
        << core::outcome_name(o);
}

TEST(Fault, DirtyPageClassifyMatchesAllPagesClassify) {
    // classify() compares only the pages dirty in either run when the run
    // and the golden share a dirty epoch, and every page otherwise. The two
    // must agree on every outcome — and a ladder whose base was taken
    // mid-run (foreign epoch) must classify its runs exactly too.
    using Kind = core::FaultTarget::Kind;
    const Scenario s{isa::Profile::V8, App::IS, Api::OMP, 2, Klass::Mini};
    orch::LadderOptions lopts;
    lopts.max_checkpoints = 4;
    sim::Machine gm = npb::make_machine(s, false);
    const orch::CheckpointLadder ladder = orch::run_golden_with_ladder(gm, lopts);
    const auto g = core::capture_golden(gm); // the ladder's epoch
    const auto reset_run = golden_of(s);
    const auto other = core::capture_golden(reset_run);
    ASSERT_EQ(g.image->epoch, ladder.base().mem().dirty_epoch());
    ASSERT_NE(other.image->epoch, g.image->epoch);

    sim::Machine mid = npb::make_machine(s, false);
    mid.run_until(g.app_start / 2);
    const orch::CheckpointLadder mid_ladder = orch::run_golden_with_ladder(mid, lopts);
    ASSERT_NE(mid_ladder.base().mem().dirty_epoch(), g.image->epoch);

    const auto finish = [&](sim::Machine m, const core::Fault& f) {
        m.run_until(f.at_retired);
        core::apply_fault(m, f.target);
        m.run_until(g.total_retired * 4 + 200'000);
        return m;
    };
    telemetry::reset();
    telemetry::set_enabled(true);
    std::uint64_t dirty_bytes = 0, all_bytes = 0;
    std::array<unsigned, core::kOutcomeCount> seen{};
    for (const Kind kind : {Kind::GPR, Kind::FP, Kind::MEM, Kind::CacheTag,
                            Kind::CacheData, Kind::Bus}) {
        CampaignConfig cfg;
        cfg.n_faults = 24;
        cfg.include_fp_regs = kind == Kind::FP;
        cfg.memory_faults = kind == Kind::MEM;
        cfg.uncore_kind = core::is_uncore_kind(kind) ? kind : Kind::GPR;
        for (const core::Fault& f : core::make_fault_list(gm, g, cfg)) {
            const sim::Machine run = finish(ladder.clone_nearest(f.at_retired), f);
            const bool wd = run.status() == sim::RunStatus::Running;
            const std::uint64_t b0 = telemetry::counter_value("classify.bytes_compared");
            const Outcome dirty_path = core::classify(run, g, wd);
            const std::uint64_t b1 = telemetry::counter_value("classify.bytes_compared");
            const Outcome all_path = core::classify(run, other, wd);
            const std::uint64_t b2 = telemetry::counter_value("classify.bytes_compared");
            dirty_bytes += b1 - b0;
            all_bytes += b2 - b1;
            EXPECT_EQ(dirty_path, all_path)
                << core::fault_kind_name(f.target.kind) << " at " << f.at_retired;
            const sim::Machine from_mid =
                finish(mid_ladder.clone_nearest(f.at_retired), f);
            EXPECT_EQ(core::classify(from_mid, g,
                                     from_mid.status() == sim::RunStatus::Running),
                      dirty_path)
                << core::fault_kind_name(f.target.kind) << " at " << f.at_retired;
            ++seen[static_cast<unsigned>(dirty_path)];
        }
    }
    telemetry::set_enabled(false);
    telemetry::reset();
    EXPECT_GT(seen[static_cast<unsigned>(Outcome::Vanished)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(Outcome::OMM)], 0u);
    EXPECT_GT(all_bytes, 4 * dirty_bytes) << "the dirty path must compare less";

    // A page only the golden run wrote is compared too: give the golden a
    // kernel page that a fault-free run leaves clean, and that run is ONA.
    sim::Machine clean = ladder.clone_nearest(0);
    clean.run_until(~0ULL >> 1);
    ASSERT_EQ(core::classify(clean, g, false), Outcome::Vanished);
    auto edited = std::make_shared<core::GoldenImage>(*g.image);
    std::uint64_t page = 0;
    while (clean.mem().dirty_pages()[page] || edited->page_at[page] != 0) ++page;
    ASSERT_LT(page, clean.mem().kern_size() / isa::layout::kPageSize);
    edited->dirty[page] = 1;
    edited->bytes.resize(edited->bytes.size() + isa::layout::kPageSize, 0);
    edited->bytes.back() = 1;
    edited->page_at[page] =
        static_cast<std::uint32_t>(edited->bytes.size() / isa::layout::kPageSize);
    core::GoldenRef golden_wrote = g;
    golden_wrote.image = edited;
    EXPECT_EQ(core::classify(clean, golden_wrote, false), Outcome::ONA);
    // Under a foreign epoch the bitmaps mean nothing: every page is compared.
    auto foreign = std::make_shared<core::GoldenImage>(*edited);
    foreign->epoch = other.image->epoch;
    std::fill(foreign->dirty.begin(), foreign->dirty.end(), 0);
    golden_wrote.image = foreign;
    EXPECT_EQ(core::classify(clean, golden_wrote, false), Outcome::ONA);
}

TEST(Campaign, FaultListDeterministicAndInWindow) {
    auto gm = golden_of(kSmall);
    const auto g = core::capture_golden(gm);
    CampaignConfig cfg;
    cfg.n_faults = 64;
    const auto f1 = core::make_fault_list(gm, g, cfg);
    const auto f2 = core::make_fault_list(gm, g, cfg);
    ASSERT_EQ(f1.size(), 64u);
    for (std::size_t i = 0; i < f1.size(); ++i) {
        EXPECT_EQ(f1[i].at_retired, f2[i].at_retired);
        EXPECT_GE(f1[i].at_retired, g.app_start);
        EXPECT_LT(f1[i].at_retired, g.total_retired);
        EXPECT_LT(f1[i].target.reg, 32u);
        EXPECT_LT(f1[i].target.bit, 64u);
    }
    // sorted by time (checkpoint fast-forward requirement)
    for (std::size_t i = 1; i < f1.size(); ++i)
        EXPECT_LE(f1[i - 1].at_retired, f1[i].at_retired);
}

TEST(Campaign, TargetSpaceMatchesProfile) {
    const Scenario s7{isa::Profile::V7, App::IS, Api::Serial, 1, Klass::Mini};
    auto gm = golden_of(s7);
    const auto g = core::capture_golden(gm);
    CampaignConfig cfg;
    cfg.n_faults = 300;
    unsigned max_reg = 0, max_bit = 0;
    for (const auto& f : core::make_fault_list(gm, g, cfg)) {
        max_reg = std::max(max_reg, f.target.reg);
        max_bit = std::max(max_bit, f.target.bit);
    }
    EXPECT_LT(max_reg, 16u); // V7: 16 GPRs incl. PC
    EXPECT_LT(max_bit, 32u); // V7: 32-bit registers
    EXPECT_GT(max_reg, 10u); // and the space is actually covered
}

TEST(Campaign, CountsSumToTotalAndDeterministic) {
    CampaignConfig cfg;
    cfg.n_faults = 40;
    cfg.host_threads = 2;
    const auto r1 = core::run_campaign(kSmall, cfg);
    EXPECT_EQ(r1.total(), 40u);
    double pct_sum = 0;
    for (unsigned o = 0; o < core::kOutcomeCount; ++o)
        pct_sum += r1.pct(static_cast<Outcome>(o));
    EXPECT_NEAR(pct_sum, 100.0, 1e-9);

    cfg.host_threads = 1; // thread count must not change results
    const auto r2 = core::run_campaign(kSmall, cfg);
    EXPECT_EQ(r1.counts, r2.counts);
    for (std::size_t i = 0; i < r1.records.size(); ++i)
        EXPECT_EQ(r1.records[i].outcome, r2.records[i].outcome) << i;
}

TEST(Campaign, SomeFaultsAreMaskedSomeAreNot) {
    CampaignConfig cfg;
    cfg.n_faults = 120;
    const auto r = core::run_campaign(kSmall, cfg);
    // uniform random register strikes: a healthy fraction must vanish and
    // at least some must do damage (very weak bounds by design)
    EXPECT_GT(r.counts[0] + r.counts[1], 20u); // Vanished+ONA
    EXPECT_GT(r.total() - (r.counts[0] + r.counts[1]), 0u);
}

TEST(Campaign, CsvExportHasHeaderAndRows) {
    CampaignConfig cfg;
    cfg.n_faults = 10;
    const auto r = core::run_campaign(kSmall, cfg);
    const auto csv = core::campaign_csv(r);
    EXPECT_NE(csv.find("scenario,at,kind"), std::string::npos);
    EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
              11u);
}

TEST(Profile, MetricsAreConsistent) {
    const auto p = prof::profile_scenario(kSmall);
    EXPECT_GT(p.instructions, 1000u);
    EXPECT_EQ(p.instructions, p.user_instr + p.kernel_instr);
    EXPECT_GT(p.branch_pct, 1.0);
    EXPECT_LT(p.branch_pct, 60.0);
    EXPECT_GT(p.mem_pct, 0.5);
    EXPECT_GT(p.fp_pct, 0.0); // EP on V8 uses FP instructions
    EXPECT_GT(p.vuln_window, 0.0);
    EXPECT_LE(p.balance_dev_pct, 100.0);
}

TEST(Profile, SoftfloatShareOnlyOnV7) {
    const Scenario s7{isa::Profile::V7, App::EP, Api::Serial, 1, Klass::Mini};
    const auto p7 = prof::profile_scenario(s7);
    const auto p8 = prof::profile_scenario(kSmall);
    EXPECT_GT(p7.softfloat_share, 10.0); // EP is FP-heavy: big library share
    EXPECT_EQ(p8.softfloat_share, 0.0);
    EXPECT_GT(p7.instructions, p8.instructions * 2); // the paper's v7 cost
}

TEST(Profile, OmpShowsApiAndKernelExposure) {
    const Scenario s{isa::Profile::V8, App::EP, Api::OMP, 2, Klass::Mini};
    const auto p = prof::profile_scenario(s);
    EXPECT_GT(p.api_share, 0.0);
    EXPECT_GT(p.kernel_share, 0.0);
    EXPECT_GT(p.ctx_switches, 0u);
}

TEST(Mining, StatsBasics) {
    using mine::pearson;
    using mine::spearman;
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    const std::vector<double> yd = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, yd), -1.0, 1e-12);
    const std::vector<double> ym = {1, 4, 9, 16, 25}; // monotone, nonlinear
    EXPECT_NEAR(spearman(x, ym), 1.0, 1e-12);
    EXPECT_NEAR(mine::mean({2, 4}), 3.0, 1e-12);
    EXPECT_NEAR(mine::stdev({2, 4}), std::sqrt(2.0), 1e-12);
}

TEST(Mining, MismatchIsSymmetricAndZeroOnSelf) {
    CampaignConfig cfg;
    cfg.n_faults = 30;
    const auto a = core::run_campaign(kSmall, cfg);
    cfg.seed = 999;
    const auto b = core::run_campaign(kSmall, cfg);
    EXPECT_DOUBLE_EQ(mine::mismatch(a, a), 0.0);
    EXPECT_DOUBLE_EQ(mine::mismatch(a, b), mine::mismatch(b, a));
}

TEST(Mining, DatasetJoinAndCorrelation) {
    mine::Dataset d;
    CampaignConfig cfg;
    cfg.n_faults = 25;
    for (App app : {App::EP, App::IS}) {
        const Scenario s{isa::Profile::V8, app, Api::Serial, 1, Klass::Mini};
        d.add(core::run_campaign(s, cfg), prof::profile_scenario(s));
    }
    EXPECT_EQ(d.rows().size(), 2u);
    EXPECT_EQ(d.column("pct_Vanished").size(), 2u);
    const auto csv = d.to_csv();
    EXPECT_NE(csv.find("pct_UT"), std::string::npos);
    const auto cor = mine::correlations(d, "pct_UT");
    EXPECT_FALSE(cor.empty());
}

TEST(Mining, FbIndexNormalizesToBaseline) {
    const auto p = prof::profile_scenario(kSmall);
    EXPECT_DOUBLE_EQ(mine::fb_index(p, p), 1.0);
}
