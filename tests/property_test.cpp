// Property tests across module boundaries: guest par_bounds partitions,
// soft-float boundary behaviour, classifier invariants under random faults,
// checkpoint restore (delta and in place) against full copies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "core/campaign.hpp"
#include "harness.hpp"
#include "kgen/kgen.hpp"
#include "orch/checkpoint.hpp"
#include "rt/librt.hpp"
#include "rt/softfloat.hpp"
#include "sim/snapshot.hpp"
#include "uncore/uncore.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

using namespace serep;
using namespace serep::test;
using isa::Cond;
using kasm::Assembler;

namespace {

/// Guest-execute par_bounds for a table of (n, nth, tid) triples.
std::vector<std::pair<std::uint64_t, std::uint64_t>> guest_bounds(
    Profile p, const std::vector<std::array<std::uint32_t, 3>>& cases) {
    std::uint64_t table = 0;
    auto m = run_kernel_snippet(
        p,
        [&](Assembler& a) {
            auto start = a.newl();
            a.b(start);
            if (p == Profile::V7) rt::build_softfloat(a); // __udiv32 dependency
            rt::build_librt(a);
            a.kdata().align(8);
            table = a.kdata().cursor();
            for (const auto& c : cases) {
                a.kdata().u64v(c[0]);
                a.kdata().u64v(c[1]);
                a.kdata().u64v(c[2]);
                a.kdata().u64v(0); // out lo
                a.kdata().u64v(0); // out hi
            }
            a.bind(start);
            kgen::KGen g(a);
            g.enter_frame(0);
            const auto ptr = g.ivar(), cnt = g.ivar(), n = g.ivar(),
                       tid = g.ivar(), nth = g.ivar(), lo = g.ivar(),
                       hi = g.ivar();
            a.movi(ptr, static_cast<std::int64_t>(table));
            a.movi(cnt, static_cast<std::int64_t>(cases.size()));
            auto loop = a.newl();
            a.bind(loop);
            a.ldr(n, ptr, 0);
            a.ldr(tid, ptr, 8);
            a.ldr(nth, ptr, 16);
            g.par_bounds(lo, hi, n, tid, nth);
            a.str(lo, ptr, 24);
            a.str(hi, ptr, 32);
            a.addi(ptr, ptr, 40);
            a.subsi(cnt, cnt, 1);
            a.b(Cond::NE, loop);
            g.leave_frame();
            finish(a);
        },
        1, 1, 30'000'000);
    EXPECT_EQ(m.status(), sim::RunStatus::Shutdown);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    const unsigned w = isa::profile_info(p).width_bytes;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto off = table - isa::layout::kKernBase + i * 40;
        out.emplace_back(m.mem().load(off + 24, w), m.mem().load(off + 32, w));
    }
    return out;
}

} // namespace

class PropBothProfiles : public ::testing::TestWithParam<Profile> {};
INSTANTIATE_TEST_SUITE_P(Profiles, PropBothProfiles,
                         ::testing::Values(Profile::V7, Profile::V8),
                         [](const auto& info) {
                             return info.param == Profile::V7 ? "V7" : "V8";
                         });

TEST_P(PropBothProfiles, ParBoundsPartitionsCoverExactly) {
    // For many (n, nth): the union of all tids' [lo,hi) must tile [0,n).
    std::vector<std::array<std::uint32_t, 3>> cases;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> combos;
    for (std::uint32_t n : {0u, 1u, 2u, 3u, 7u, 8u, 16u, 63u, 100u, 1023u}) {
        for (std::uint32_t nth : {1u, 2u, 3u, 4u, 7u, 8u}) {
            combos.emplace_back(n, nth);
            for (std::uint32_t tid = 0; tid < nth; ++tid)
                cases.push_back({n, tid, nth});
        }
    }
    const auto got = guest_bounds(GetParam(), cases);
    std::size_t k = 0;
    for (const auto& [n, nth] : combos) {
        std::uint64_t expect_lo = 0;
        for (std::uint32_t tid = 0; tid < nth; ++tid, ++k) {
            const auto [lo, hi] = got[k];
            EXPECT_EQ(lo, expect_lo) << "n=" << n << " nth=" << nth << " tid=" << tid;
            EXPECT_LE(lo, hi);
            EXPECT_LE(hi, n);
            expect_lo = hi;
        }
        EXPECT_EQ(expect_lo, n) << "n=" << n << " nth=" << nth;
    }
}

TEST(SoftFloatEdges, OverflowUnderflowAndSignedZero) {
    const double dmax = std::numeric_limits<double>::max();
    const double tiny = 1e-300;
    std::vector<std::pair<double, double>> cases = {
        {dmax, dmax},      // add -> +inf
        {-dmax, -dmax},    // add -> -inf
        {tiny, -tiny},     // exact cancel -> +0
        {0.0, -0.0},
        {1.0, -1.0},
    };
    // reuse the sweep runner from softfloat_test via a local copy: simpler
    // to assemble directly here
    std::uint64_t table = 0;
    auto m = run_kernel_snippet(
        Profile::V7,
        [&](Assembler& a) {
            auto start = a.newl();
            a.b(start);
            rt::build_softfloat(a);
            a.kdata().align(8);
            table = a.kdata().cursor();
            for (auto [x, y] : cases) {
                a.kdata().f64(x);
                a.kdata().f64(y);
                a.kdata().u64v(0);
            }
            a.bind(start);
            const auto ptr = a.sav(0), n = a.sav(1);
            a.movi(ptr, static_cast<std::int64_t>(table));
            a.movi(n, static_cast<std::int64_t>(cases.size()));
            auto loop = a.newl();
            a.bind(loop);
            a.ldr(0, ptr, 0);
            a.ldr(1, ptr, 4);
            a.ldr(2, ptr, 8);
            a.ldr(3, ptr, 12);
            a.bl("__adddf3");
            a.str(0, ptr, 16);
            a.str(1, ptr, 20);
            a.addi(ptr, ptr, 24);
            a.subsi(n, n, 1);
            a.b(Cond::NE, loop);
            finish(a);
        },
        1, 1, 1'000'000);
    ASSERT_EQ(m.status(), sim::RunStatus::Shutdown);
    auto res = [&](int i) {
        return util::bits_f64(
            m.mem().load(table - isa::layout::kKernBase + i * 24 + 16, 8));
    };
    EXPECT_TRUE(std::isinf(res(0)) && res(0) > 0);
    EXPECT_TRUE(std::isinf(res(1)) && res(1) < 0);
    EXPECT_EQ(res(2), 0.0);
    EXPECT_EQ(res(3), 0.0);
    EXPECT_EQ(res(4), 0.0);
}

TEST(ClassifierInvariants, RandomFaultsAlwaysClassify) {
    // Any random strike must land in exactly one category and the machine
    // must always reach a terminal condition within the watchdog budget.
    const npb::Scenario s{isa::Profile::V7, npb::App::DC, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    sim::Machine gm = npb::make_machine(s, false);
    gm.run_until(~0ULL >> 1);
    const auto g = core::capture_golden(gm);
    util::Rng rng(777);
    std::array<unsigned, core::kOutcomeCount> seen{};
    for (int i = 0; i < 30; ++i) {
        sim::Machine m = npb::make_machine(s, false);
        const auto at = rng.range(g.app_start, g.total_retired - 1);
        m.run_until(at);
        m.flip_gpr(0, static_cast<unsigned>(rng.below(16)),
                   static_cast<unsigned>(rng.below(32)));
        m.run_until(g.total_retired * 4 + 200'000);
        const auto o =
            core::classify(m, g, m.status() == sim::RunStatus::Running);
        ++seen[static_cast<unsigned>(o)];
    }
    unsigned total = 0;
    for (auto c : seen) total += c;
    EXPECT_EQ(total, 30u);
    EXPECT_GT(seen[0] + seen[1], 0u); // something masks
}

TEST(CheckpointInvariants, CloneFromMidRunCheckpointMatchesFromResetReplay) {
    // The orchestrator's checkpoint-ladder premise: a machine value-copied at
    // an arbitrary paused instant and run to completion is indistinguishable
    // from the uninterrupted from-reset execution.
    for (const npb::Scenario& s :
         {npb::Scenario{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                        npb::Klass::Mini},
          npb::Scenario{isa::Profile::V7, npb::App::IS, npb::Api::OMP, 2,
                        npb::Klass::Mini}}) {
        sim::Machine reference = npb::make_machine(s, false);
        reference.run_until(~0ULL >> 1);
        ASSERT_EQ(reference.status(), sim::RunStatus::Shutdown) << s.name();

        util::Rng rng(0xC0FFEE);
        for (int trial = 0; trial < 6; ++trial) {
            const auto point = rng.range(1, reference.total_retired() - 1);
            sim::Machine paused = npb::make_machine(s, false);
            paused.run_until(point);
            ASSERT_EQ(paused.status(), sim::RunStatus::Running);
            sim::Machine resumed = paused; // the checkpoint clone
            resumed.run_until(~0ULL >> 1);

            EXPECT_EQ(resumed.status(), reference.status()) << s.name();
            EXPECT_EQ(resumed.exit_code(), reference.exit_code()) << s.name();
            EXPECT_EQ(resumed.total_retired(), reference.total_retired())
                << s.name() << " snapshot at " << point;
            EXPECT_EQ(core::arch_state_hash(resumed),
                      core::arch_state_hash(reference))
                << s.name();
            for (unsigned p = 0; p < resumed.config().procs; ++p) {
                EXPECT_EQ(resumed.output(p), reference.output(p))
                    << s.name() << " proc " << p;
                EXPECT_EQ(resumed.proc_exit_code(p), reference.proc_exit_code(p))
                    << s.name() << " proc " << p;
            }
        }
    }
}

TEST(CheckpointInvariants, StrideDrivenRunMatchesStraightRun) {
    // Pausing at checkpoint boundaries must not perturb execution.
    const npb::Scenario s{isa::Profile::V8, npb::App::DC, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    sim::Machine straight = npb::make_machine(s, false);
    straight.run_until(~0ULL >> 1);

    sim::Machine chunked = npb::make_machine(s, false);
    unsigned checkpoints = 0;
    sim::run_with_checkpoints(chunked, 1000, ~0ULL >> 1,
                              [&](const sim::Machine&) { ++checkpoints; });

    EXPECT_GT(checkpoints, 0u);
    EXPECT_EQ(chunked.status(), straight.status());
    EXPECT_EQ(chunked.exit_code(), straight.exit_code());
    EXPECT_EQ(chunked.total_retired(), straight.total_retired());
    EXPECT_EQ(core::arch_state_hash(chunked), core::arch_state_hash(straight));
    EXPECT_EQ(chunked.output(0), straight.output(0));
}

TEST(CheckpointInvariants, RestoreFromDeltaMatchesRestoreFromFullCopy) {
    // Delta-snapshot premise: a dirty-page delta against the base rung,
    // restored, must be indistinguishable from a full Machine copy taken at
    // the same paused instant — same registers, same memory image, and the
    // same behaviour when resumed to completion.
    for (const npb::Scenario& s :
         {npb::Scenario{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                        npb::Klass::Mini},
          npb::Scenario{isa::Profile::V7, npb::App::IS, npb::Api::OMP, 2,
                        npb::Klass::Mini}}) {
        sim::Machine live = npb::make_machine(s, false);
        const sim::Machine base = live; // the ladder's base rung
        live.mem().clear_dirty();       // dirty-since-base from here on

        sim::Machine probe = npb::make_machine(s, false);
        probe.run_until(~0ULL >> 1);
        ASSERT_EQ(probe.status(), sim::RunStatus::Shutdown) << s.name();
        const std::uint64_t total = probe.total_retired();

        util::Rng rng(0xDE17A);
        std::uint64_t at = 0;
        for (int trial = 0; trial < 5; ++trial) {
            // Ascending random rungs off one live golden run, like the ladder.
            at += rng.range(1, (total - at) / 2 + 1);
            live.run_until(at);
            ASSERT_EQ(live.status(), sim::RunStatus::Running) << s.name();

            const sim::Machine full = live; // full snapshot at this rung
            const sim::MachineDelta delta = sim::make_machine_delta(live, base);
            const sim::Machine restored = sim::restore_machine_delta(delta, base);

            EXPECT_EQ(restored.total_retired(), full.total_retired());
            EXPECT_EQ(core::arch_state_hash(restored), core::arch_state_hash(full))
                << s.name() << " rung at " << at;
            ASSERT_EQ(restored.mem().hash_range(0, restored.mem().phys_size()),
                      full.mem().hash_range(0, full.mem().phys_size()))
                << s.name() << " rung at " << at;

            // A delta must actually be a delta, not a disguised full copy.
            EXPECT_LT(delta.footprint_bytes(), sim::machine_footprint_bytes(full))
                << s.name();

            // Resumed clones behave identically to the reference run.
            sim::Machine from_delta = restored;
            from_delta.run_until(~0ULL >> 1);
            EXPECT_EQ(from_delta.status(), probe.status()) << s.name();
            EXPECT_EQ(from_delta.total_retired(), total) << s.name();
            EXPECT_EQ(core::arch_state_hash(from_delta), core::arch_state_hash(probe))
                << s.name() << " rung at " << at;
            for (unsigned p = 0; p < probe.config().procs; ++p)
                EXPECT_EQ(from_delta.output(p), probe.output(p))
                    << s.name() << " proc " << p;
        }
    }
}

TEST(ClassifierInvariants, InjectionAtAppStartAndEndAreValid) {
    const npb::Scenario s{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    sim::Machine gm = npb::make_machine(s, false);
    gm.run_until(~0ULL >> 1);
    const auto g = core::capture_golden(gm);
    for (std::uint64_t at : {g.app_start, g.total_retired - 1}) {
        sim::Machine m = npb::make_machine(s, false);
        m.run_until(at);
        m.flip_gpr(0, 0, 0);
        m.run_until(g.total_retired * 4 + 200'000);
        const auto o =
            core::classify(m, g, m.status() == sim::RunStatus::Running);
        EXPECT_LT(static_cast<unsigned>(o), core::kOutcomeCount);
    }
}

namespace {

/// Every observable an in-place restore must reproduce.
void expect_same_state(const sim::Machine& a, const sim::Machine& b,
                       const std::string& where) {
    ASSERT_EQ(a.mem().phys_size(), b.mem().phys_size()) << where;
    for (std::uint64_t p = 0; p < a.mem().page_count(); ++p)
        ASSERT_EQ(std::memcmp(a.mem().page_data(p), b.mem().page_data(p),
                              isa::layout::kPageSize),
                  0)
            << where << " page " << p;
    EXPECT_EQ(a.mem().dirty_pages(), b.mem().dirty_pages()) << where;
    EXPECT_EQ(a.mem().dirty_epoch(), b.mem().dirty_epoch()) << where;
    EXPECT_EQ(a.mem().code_dirty_pages(), b.mem().code_dirty_pages()) << where;
    EXPECT_EQ(core::arch_state_hash(a), core::arch_state_hash(b)) << where;
    EXPECT_EQ(a.total_retired(), b.total_retired()) << where;
    EXPECT_EQ(a.uncore_hook(), nullptr) << where;
    for (unsigned c = 0; c < a.cores(); ++c) {
        EXPECT_EQ(a.l1i(c).hits(), b.l1i(c).hits()) << where << " core " << c;
        EXPECT_EQ(a.l1i(c).misses(), b.l1i(c).misses()) << where << " core " << c;
        EXPECT_EQ(a.l1d(c).hits(), b.l1d(c).hits()) << where << " core " << c;
        EXPECT_EQ(a.l1d(c).misses(), b.l1d(c).misses()) << where << " core " << c;
    }
    EXPECT_EQ(a.l2().hits(), b.l2().hits()) << where;
    EXPECT_EQ(a.l2().misses(), b.l2().misses()) << where;
    for (unsigned p = 0; p < a.config().procs; ++p)
        EXPECT_EQ(a.output(p), b.output(p)) << where << " proc " << p;
}

/// A strike of `kind` on `m`'s geometry. MEM strikes land in the first
/// process's static data, or in the text mirror when `text`.
core::FaultTarget random_target(core::FaultTarget::Kind kind, const sim::Machine& m,
                                util::Rng& rng, bool text) {
    core::FaultTarget t;
    t.kind = kind;
    t.core = static_cast<unsigned>(rng.below(m.cores()));
    switch (kind) {
    case core::FaultTarget::Kind::GPR:
        t.reg = static_cast<unsigned>(rng.below(8));
        t.bit = static_cast<unsigned>(rng.below(16));
        break;
    case core::FaultTarget::Kind::MEM:
        t.phys = text ? m.mem().text_base() + rng.below(m.mem().text_size())
                      : m.mem().kern_size() + rng.below(m.image().udata_size);
        t.bit = static_cast<unsigned>(rng.below(8));
        break;
    case core::FaultTarget::Kind::CacheTag:
    case core::FaultTarget::Kind::CacheData:
        t.reg = uncore::kLevelL1D;
        t.phys = rng.below(uncore::cell_count(uncore::kLevelL1D));
        t.bit = static_cast<unsigned>(
            kind == core::FaultTarget::Kind::CacheData
                ? rng.below(64 * 8)
                : rng.below(uncore::tag_bit_count(uncore::kLevelL1D,
                                                  m.mem().phys_size())));
        break;
    default:
        t.bit = static_cast<unsigned>(rng.below(64));
        break;
    }
    return t;
}

} // namespace

TEST(CheckpointInvariants, InPlaceRestoreMatchesCloneNearestOnFullState) {
    // One machine reused across a seeded sequence of fault runs of mixed
    // kinds, restored in place to random rungs (the base rung included),
    // must equal a fresh clone_nearest each time — on memory, dirty sets,
    // registers, cache counters and outputs — and then run the next fault
    // to the same end.
    using Kind = core::FaultTarget::Kind;
    const npb::Scenario s{isa::Profile::V7, npb::App::IS, npb::Api::OMP, 2,
                          npb::Klass::Mini};
    const Kind kinds[] = {Kind::GPR,      Kind::MEM, Kind::CacheTag,
                          Kind::CacheData, Kind::Bus, Kind::MEM};
    for (const sim::Engine e : {sim::Engine::Switch, sim::Engine::Cached}) {
        sim::Machine gm = npb::make_machine(s, false);
        gm.set_engine(e);
        orch::LadderOptions lopts;
        lopts.max_checkpoints = 6;
        const orch::CheckpointLadder ladder = orch::run_golden_with_ladder(gm, lopts);
        ASSERT_EQ(gm.status(), sim::RunStatus::Shutdown);
        ASSERT_GT(ladder.checkpoints(), 1u);
        ASSERT_TRUE(ladder.base().mem().has_text());
        const core::GoldenRef g = core::capture_golden(gm);
        const std::uint64_t budget = g.total_retired * 2 + 200'000;
        const std::uint64_t base_at = ladder.base().total_retired();

        util::Rng rng(0x1DE5 + static_cast<unsigned>(e));
        std::optional<sim::Machine> reused;
        unsigned restored_in_place = 0, base_rungs = 0;
        for (int k = 0; k < 18; ++k) {
            const Kind kind = kinds[k % std::size(kinds)];
            // Every third run strikes before the first rung.
            const std::uint64_t at =
                k % 3 == 0 ? rng.range(base_at, base_at + ladder.stride() - 1)
                           : rng.range(g.app_start, g.total_retired - 1);
            base_rungs += ladder.nearest_retired(at) == base_at;
            const std::string where = "engine " + std::to_string(int(e)) +
                                      " run " + std::to_string(k) + " at " +
                                      std::to_string(at);
            if (reused) {
                // In place: the guest memory buffer is kept, not replaced.
                const std::uint8_t* payload = reused->mem().page_data(0);
                ladder.restore_into(*reused, at);
                restored_in_place += reused->mem().page_data(0) == payload;
            } else {
                reused.emplace(ladder.clone_nearest(at));
            }
            sim::Machine fresh = ladder.clone_nearest(at);
            expect_same_state(*reused, fresh, where);

            // The second MEM slot strikes the text mirror.
            const core::FaultTarget t = random_target(
                kind, fresh, rng, k % std::size(kinds) == std::size(kinds) - 1);
            for (sim::Machine* m : {&*reused, &fresh}) {
                m->run_until(at);
                core::apply_fault(*m, t);
                m->run_until(budget);
            }
            const bool wd = fresh.status() == sim::RunStatus::Running;
            EXPECT_EQ(core::classify(*reused, g, wd), core::classify(fresh, g, wd))
                << where;
            EXPECT_EQ(reused->status(), fresh.status()) << where;
            EXPECT_EQ(reused->total_retired(), fresh.total_retired()) << where;
            EXPECT_EQ(reused->time_ticks(), fresh.time_ticks()) << where;
            for (unsigned p = 0; p < fresh.config().procs; ++p)
                EXPECT_EQ(reused->output(p), fresh.output(p)) << where;
        }
        EXPECT_EQ(restored_in_place, 17u);
        EXPECT_GE(base_rungs, 6u);
        // The text-mirror strikes were restored away: the reused machine's
        // sticky text set matches a fresh clone's.
        ladder.restore_into(*reused, g.app_start);
        expect_same_state(*reused, ladder.clone_nearest(g.app_start), "final");
        // Another ladder's machine (this one based mid-boot) has a bitmap
        // relative to another base: it must be replaced, not patched.
        sim::Machine mid = npb::make_machine(s, false);
        mid.set_engine(e);
        mid.run_until(g.app_start / 2);
        const orch::CheckpointLadder mid_ladder =
            orch::run_golden_with_ladder(mid, lopts);
        mid_ladder.restore_into(*reused, g.app_start);
        expect_same_state(*reused, mid_ladder.clone_nearest(g.app_start),
                          "foreign ladder");
    }
}
