// Uncore fault injection (src/uncore/) — line-state model and campaign
// determinism gates.
//
// Contracts gated here:
//  * cache-data: a struck resident line reads corrupted while it stays in
//    the cache, a CLEAN eviction drops the corruption (restored backing
//    memory), and a store to the line commits it as a writeback.
//  * cache-tag: the aliased way hits for the alias address and serves the
//    victim's data; a clean eviction restores the alias line's pristine
//    bytes, a dirty eviction leaves the corruption committed.
//  * bus: exactly ONE in-flight transfer is corrupted — a load reads the
//    flipped value but memory is intact afterwards; a store lands flipped
//    permanently; a run ending before the next transaction settles at the
//    run boundary.
//  * campaigns over the uncore kinds are byte-identical across both
//    engines, and shard databases (plain and zstd-framed mixed) merge
//    byte-identically to the unsharded run.
//  * equivalence pruning DECLINES uncore jobs: outcomes equal the unpruned
//    run, nothing is inferred, and the declined-run counter reports it.
//  * copy-assigning a rung over a machine disarms its uncore hook (the
//    in-place ladder restore reuses one machine across fault runs).
#include <gtest/gtest.h>

#include <sstream>

#include "core/campaign.hpp"
#include "harness.hpp"
#include "orch/batch_runner.hpp"
#include "orch/shard.hpp"
#include "uncore/uncore.hpp"
#include "util/zframe.hpp"

using namespace serep;
using namespace serep::test;
using kasm::Assembler;

namespace {

constexpr sim::Engine kAllEngines[] = {sim::Engine::Switch, sim::Engine::Cached};

/// L1D geometry the micro programs below are written against (32 KiB 4-way,
/// 64 B lines -> 128 sets): lines 8 KiB apart map to the same set, and tag
/// bit 0 is physical address bit 13.
constexpr std::uint64_t kSetStride = 8 * 1024;

/// Observable end-state fold (subset of engine_test's fingerprint).
std::uint64_t fingerprint(const sim::Machine& m) {
    std::uint64_t h = core::arch_state_hash(m);
    h ^= m.mem().hash_range(0, m.mem().phys_size());
    h ^= m.time_ticks() * 0x9E3779B97F4A7C15ull;
    h ^= m.total_retired() * 0xC2B2AE3D27D4EB4Full;
    h ^= static_cast<std::uint64_t>(m.status()) << 1;
    h ^= static_cast<std::uint64_t>(m.exit_code()) << 9;
    return h;
}

/// Assembled-but-unrun machine (run_kernel_snippet without the run).
sim::Machine build_snippet(const std::function<void(Assembler&)>& body) {
    Assembler a(isa::Profile::V8);
    a.func("boot", kasm::ModTag::KERNEL);
    a.set_kernel_boot(a.here());
    body(a);
    a.end_kernel_text();
    auto img = std::make_shared<const kasm::Image>(a.finalize());
    sim::Machine m(std::move(img), sim::MachineConfig{});
    sim::load_image_data(m);
    m.core(0).regs.set_pc(m.image().kernel_boot);
    m.core(0).regs.set_sp(kKernStackTop(0));
    return m;
}

/// Retired count when straight-line execution from boot reaches `addr`.
std::uint64_t retired_at(const sim::Machine& m, std::uint64_t addr) {
    return m.image().instr_index(addr) -
           m.image().instr_index(m.image().kernel_boot);
}

/// Emit loads of `n` distinct same-set lines (kSetStride apart, starting at
/// buf + first*kSetStride) — enough of them evicts buf's 4-way L1D set.
void emit_evictions(Assembler& a, std::uint64_t buf_va, unsigned first,
                    unsigned n) {
    const auto addr = a.sav(1);
    for (unsigned k = first; k < first + n; ++k) {
        a.movi(addr, static_cast<std::int64_t>(buf_va + k * kSetStride));
        a.ldr(a.tmp(3), addr, 0);
    }
}

/// One micro program plus the addresses the checks below need. Each test
/// fills it from inside its assembler body (the body runs once per engine,
/// re-setting the same values). The body captures a raw Snippet*: the
/// test's shared_ptr owns the Snippet and outlives every run, while a
/// captured shared_ptr would own itself through `body` and leak.
struct Snippet {
    std::function<void(Assembler&)> body;
    std::uint64_t buf_va = 0;    ///< kdata buffer VA (phys = VA - kKernBase)
    std::uint64_t park_addr = 0; ///< injection point (straight-line prefix)
};

} // namespace

// ------------------------------------------------------- line-state model

namespace {

/// Run `snippet` on every engine: park at its injection point, apply `t`,
/// run to completion. `after_inject` checks the armed state, `at_end` the
/// settled one. Also asserts the engines' end states are identical.
void run_model_check(
    const std::function<void(Assembler&)>& body, std::uint64_t value,
    const std::function<core::FaultTarget(const sim::Machine&, std::uint64_t)>&
        make_target,
    const std::function<void(sim::Machine&, std::uint64_t)>& after_inject,
    const std::function<void(const sim::Machine&, std::uint64_t)>& at_end,
    std::uint64_t* buf_va, std::uint64_t* park_addr) {
    std::uint64_t ref = 0;
    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = build_snippet(body);
        m.set_engine(e);
        const std::uint64_t buf_phys = *buf_va - isa::layout::kKernBase;
        m.run_until(retired_at(m, *park_addr));
        ASSERT_EQ(m.mem().load(buf_phys, 8), value)
            << "engine " << static_cast<int>(e);
        core::apply_fault(m, make_target(m, buf_phys));
        after_inject(m, buf_phys);
        m.run_until(1'000'000);
        ASSERT_EQ(m.status(), sim::RunStatus::Shutdown)
            << "engine " << static_cast<int>(e);
        at_end(m, buf_phys);
        if (e == sim::Engine::Switch)
            ref = fingerprint(m);
        else
            EXPECT_EQ(fingerprint(m), ref) << "engine " << static_cast<int>(e);
    }
}

/// Target the L1D cell currently holding `phys`'s line. Cache strikes are
/// cell-addressed (FaultTarget::phys = set * ways + way), so the tests scan
/// the set's ways for the line they parked resident. For cache-data, `bit`
/// is the bit within the struck *byte* at `phys` — converted here to the
/// bit-in-line index the fault target carries.
core::FaultTarget l1d_cell_target(const sim::Machine& m,
                                  core::FaultTarget::Kind kind,
                                  std::uint64_t phys, unsigned bit) {
    const sim::Cache& c = m.l1d_cache(0);
    const std::uint64_t line = phys >> c.line_shift() << c.line_shift();
    const std::uint32_t set =
        static_cast<std::uint32_t>(phys >> c.line_shift()) & (c.sets() - 1);
    core::FaultTarget t;
    t.kind = kind;
    t.core = 0;
    t.reg = uncore::kLevelL1D;
    t.phys = std::uint64_t{set} * c.ways(); // way 0 (empty-cell strikes)
    for (std::uint32_t w = 0; w < c.ways(); ++w)
        if (c.line_at(set, w) == line)
            t.phys = std::uint64_t{set} * c.ways() + w;
    t.bit = kind == core::FaultTarget::Kind::CacheData
                ? static_cast<unsigned>((phys & 63) * 8) + bit
                : bit;
    return t;
}

} // namespace

TEST(UncoreModel, CacheDataCleanEvictionDropsTheCorruption) {
    // Park with value 5 resident; flip bit 1 (-> 7) while cached; evict the
    // line with 5 clean same-set loads; the read-back must see the restored
    // 5 — the strike was masked by the clean eviction.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 5);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        emit_evictions(a, snip->buf_va, 1, 5);
        a.ldr(a.tmp(2), base, 0);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(2));
    };
    run_model_check(
        snip->body, 5,
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_TRUE(m.l1d_cache(0).probe(phys));
            return l1d_cell_target(m, core::FaultTarget::Kind::CacheData, phys,
                                   1);
        },
        [](sim::Machine& m, std::uint64_t phys) {
            // While resident, the (globally visible) value is corrupted.
            EXPECT_EQ(m.mem().load(phys, 8), 7u);
        },
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 5) << "clean eviction must restore";
            EXPECT_EQ(m.mem().load(phys, 8), 5u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, CacheDataDirtyWritebackCommitsTheCorruption) {
    // Same strike, but the program stores the (corrupted) loaded value back
    // before the eviction: the line is dirty, the writeback commits 7, and
    // no restore may happen — the output diverges from golden permanently.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 5);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        a.ldr(a.tmp(1), base, 0);  // reads 7 (corrupted while resident)
        a.str(a.tmp(1), base, 0);  // dirties the watched line
        emit_evictions(a, snip->buf_va, 1, 5);
        a.ldr(a.tmp(2), base, 0);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(2));
    };
    run_model_check(
        snip->body, 5,
        [](const sim::Machine& m, std::uint64_t phys) {
            return l1d_cell_target(m, core::FaultTarget::Kind::CacheData, phys,
                                   1);
        },
        [](sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.mem().load(phys, 8), 7u);
        },
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 7) << "dirty writeback must commit";
            EXPECT_EQ(m.mem().load(phys, 8), 7u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, CacheTagAliasHitsServeTheVictimsData) {
    // Flip tag bit 0 of the way holding [buf]: the cache now claims it holds
    // the alias line (buf + 8 KiB). A load of the alias address hits the
    // aliased way and reads the VICTIM's value; a clean eviction restores
    // the alias line's pristine bytes (zero).
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 5);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        const auto alias = a.sav(1);
        a.movi(alias, static_cast<std::int64_t>(snip->buf_va + kSetStride));
        a.ldr(a.tmp(1), alias, 0); // alias hit: the victim's 5
        // Evict the aliased way (k=2.. skips the alias line itself), then
        // read the alias address again: pristine bytes restored -> 0.
        emit_evictions(a, snip->buf_va, 2, 5);
        a.movi(alias, static_cast<std::int64_t>(snip->buf_va + kSetStride));
        a.ldr(a.tmp(2), alias, 0);
        a.lsli(a.tmp(1), a.tmp(1), 4);
        a.add(a.tmp(1), a.tmp(1), a.tmp(2));
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(1)); // 5*16 + 0 = 80
    };
    run_model_check(
        snip->body, 5,
        [](const sim::Machine& m, std::uint64_t phys) {
            return l1d_cell_target(m, core::FaultTarget::Kind::CacheTag, phys,
                                   0);
        },
        [](sim::Machine& m, std::uint64_t phys) {
            // Armed: the alias line overlays the victim's bytes and the way
            // answers for the alias address, no longer for the victim's.
            EXPECT_EQ(m.mem().load(phys + kSetStride, 8), 5u);
            EXPECT_TRUE(m.l1d_cache(0).probe(phys + kSetStride));
            EXPECT_FALSE(m.l1d_cache(0).probe(phys));
        },
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 80);
            EXPECT_EQ(m.mem().load(phys + kSetStride, 8), 0u)
                << "clean eviction must restore the alias line";
            EXPECT_EQ(m.mem().load(phys, 8), 5u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, CacheTagDirtyEvictionLeavesTheCorruptionCommitted) {
    // A store through the aliased tag dirties the way: the later eviction
    // must NOT restore the alias line — the wrong-address writeback is
    // permanent.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 5);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        const auto alias = a.sav(1);
        a.movi(alias, static_cast<std::int64_t>(snip->buf_va + kSetStride));
        a.movi(a.tmp(1), 9);
        a.str(a.tmp(1), alias, 8); // dirty the aliased way
        emit_evictions(a, snip->buf_va, 2, 5);
        a.movi(alias, static_cast<std::int64_t>(snip->buf_va + kSetStride));
        a.ldr(a.tmp(2), alias, 0);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(2)); // victim's 5, not 0
    };
    run_model_check(
        snip->body, 5,
        [](const sim::Machine& m, std::uint64_t phys) {
            return l1d_cell_target(m, core::FaultTarget::Kind::CacheTag, phys,
                                   0);
        },
        [](sim::Machine&, std::uint64_t) {},
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 5)
                << "dirty aliased way must stay corrupted";
            EXPECT_EQ(m.mem().load(phys + kSetStride, 8), 5u);
            EXPECT_EQ(m.mem().load(phys + kSetStride + 8, 8), 9u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, BusCorruptsExactlyOneLoadTransfer) {
    // First transaction after injection is a load: it reads the flipped
    // value (9 -> 8 with bit 0), the NEXT load reads the intact 9 — memory
    // itself was never wrong.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 9);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        a.ldr(a.tmp(1), base, 0); // corrupted in flight: 8
        a.ldr(a.tmp(2), base, 0); // intact again: 9
        a.lsli(a.tmp(1), a.tmp(1), 4);
        a.add(a.tmp(1), a.tmp(1), a.tmp(2));
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(1)); // 8*16 + 9 = 137
    };
    run_model_check(
        snip->body, 9,
        [](const sim::Machine&, std::uint64_t) {
            core::FaultTarget t;
            t.kind = core::FaultTarget::Kind::Bus;
            t.core = 0;
            t.bit = 0;
            return t;
        },
        [](sim::Machine& m, std::uint64_t phys) {
            // Armed but nothing corrupted yet: the strike waits in flight.
            EXPECT_EQ(m.mem().load(phys, 8), 9u);
        },
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 137);
            EXPECT_EQ(m.mem().load(phys, 8), 9u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, BusStoreCorruptionLandsPermanently) {
    // First transaction after injection is a store: the value lands flipped
    // and stays flipped (the in-flight corruption was written back). The
    // pending flip settles at the run boundary even with no further access.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 9);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        a.str(a.tmp(0), base, 8); // the corrupted transfer (9 -> 8)
        finish(a, 3);             // shutdown without another data access
    };
    run_model_check(
        snip->body, 9,
        [](const sim::Machine&, std::uint64_t) {
            core::FaultTarget t;
            t.kind = core::FaultTarget::Kind::Bus;
            t.core = 0;
            t.bit = 0;
            return t;
        },
        [](sim::Machine&, std::uint64_t) {},
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 3);
            EXPECT_EQ(m.mem().load(phys + 8, 8), 8u)
                << "store corruption must settle by the run boundary";
            EXPECT_EQ(m.mem().load(phys, 8), 9u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, StrikeOnAnEmptyCellIsMaskedOutright) {
    // No data access happens before the park, so every L1D cell is empty:
    // injection lands on an invalid way, mutates nothing, and the run is
    // indistinguishable from golden.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        snip->park_addr = a.here();
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.ldr(a.tmp(2), base, 0);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(2));
    };
    for (const auto kind : {core::FaultTarget::Kind::CacheData,
                            core::FaultTarget::Kind::CacheTag}) {
        for (const sim::Engine e : kAllEngines) {
            sim::Machine m = build_snippet(snip->body);
            m.set_engine(e);
            const std::uint64_t phys = snip->buf_va - isa::layout::kKernBase;
            m.run_until(retired_at(m, snip->park_addr));
            ASSERT_FALSE(m.l1d_cache(0).probe(phys));
            core::apply_fault(m, l1d_cell_target(m, kind, phys, 1));
            EXPECT_EQ(m.mem().load(phys, 8), 0u);
            m.run_until(1'000'000);
            EXPECT_EQ(m.status(), sim::RunStatus::Shutdown);
            EXPECT_EQ(m.exit_code(), 0);
        }
    }
}

TEST(UncoreModel, CopyAssigningARungOverAnArmedMachineDisarmsIt) {
    // An in-place ladder restore copy-assigns the rung's shell over the
    // machine that just ran a fault: the armed model must not survive into
    // the next run (clones never inherit the hook; neither do assignees).
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.ldr(a.tmp(1), base, 0); // make the line resident
        snip->park_addr = a.here();
        a.ldr(a.tmp(2), base, 0);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(2));
    };
    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = build_snippet(snip->body);
        m.set_engine(e);
        const std::uint64_t phys = snip->buf_va - isa::layout::kKernBase;
        m.run_until(retired_at(m, snip->park_addr));
        const sim::Machine rung = m;
        core::apply_fault(
            m, l1d_cell_target(m, core::FaultTarget::Kind::CacheTag, phys, 0));
        ASSERT_NE(m.uncore_hook(), nullptr) << "the strike must arm a model";
        m = rung;
        EXPECT_EQ(m.uncore_hook(), nullptr) << "engine " << static_cast<int>(e);
        m.run_until(1'000'000);
        EXPECT_EQ(m.status(), sim::RunStatus::Shutdown);
        EXPECT_EQ(m.exit_code(), 0);
    }
}

// ------------------------------------------- campaign determinism + prune

namespace {

const npb::Scenario kV7EP{isa::Profile::V7, npb::App::EP, npb::Api::Serial, 1,
                          npb::Klass::Mini};
const npb::Scenario kV8IS{isa::Profile::V8, npb::App::IS, npb::Api::OMP, 2,
                          npb::Klass::Mini};

core::CampaignConfig uncore_cfg(core::FaultTarget::Kind kind, unsigned faults,
                                std::uint64_t seed) {
    core::CampaignConfig cfg;
    cfg.n_faults = faults;
    cfg.seed = seed;
    cfg.uncore_kind = kind;
    return cfg;
}

std::vector<orch::ShardJobSpec> uncore_jobs() {
    return {{kV7EP, uncore_cfg(core::FaultTarget::Kind::CacheTag, 20, 0xBEEF)},
            {kV8IS, uncore_cfg(core::FaultTarget::Kind::Bus, 15, 0xCAFE)}};
}

} // namespace

TEST(UncoreCampaign, DatabasesAreByteIdenticalAcrossEngines) {
    std::string out[std::size(kAllEngines)];
    for (std::size_t i = 0; i < std::size(kAllEngines); ++i) {
        std::ostringstream csv, jsonl;
        orch::BatchOptions opts;
        opts.threads = 4;
        opts.engine = kAllEngines[i];
        orch::BatchRunner runner(opts);
        runner.add(kV7EP, uncore_cfg(core::FaultTarget::Kind::CacheTag, 20, 0xA));
        runner.add(kV7EP, uncore_cfg(core::FaultTarget::Kind::CacheData, 20, 0xB));
        runner.add(kV8IS, uncore_cfg(core::FaultTarget::Kind::Bus, 15, 0xC));
        core::write_campaign_streams(runner.run_all(), &csv, &jsonl);
        out[i] = csv.str() + "\x1e" + jsonl.str();
    }
    EXPECT_EQ(out[0], out[1]);
    EXPECT_NE(out[0].find("cache-tag"), std::string::npos);
    EXPECT_NE(out[0].find("cache-data"), std::string::npos);
    EXPECT_NE(out[0].find("bus"), std::string::npos);
}

TEST(UncoreCampaign, ShardsMergeByteIdenticalWithZstdMixedIn) {
    // Unsharded reference.
    std::ostringstream ref_csv, ref_jsonl;
    {
        orch::BatchRunner runner{orch::BatchOptions{}};
        for (const auto& j : uncore_jobs()) runner.add(j.scenario, j.cfg);
        core::write_campaign_streams(runner.run_all(), &ref_csv, &ref_jsonl);
    }
    // 3-way sharded, shard 1 zstd-framed.
    std::vector<std::string> dbs;
    for (unsigned i = 0; i < 3; ++i) {
        std::ostringstream os;
        orch::run_shard(uncore_jobs(), orch::ShardPlan{i, 3},
                        orch::BatchOptions{}, os);
        dbs.push_back(i == 1 ? util::zframe_compress(os.str()) : os.str());
    }
    std::ostringstream csv, jsonl;
    const auto merged = orch::merge_shards(dbs, &csv, &jsonl);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(csv.str(), ref_csv.str());
    EXPECT_EQ(jsonl.str(), ref_jsonl.str());
}

TEST(UncoreCampaign, PruningDeclinesUncoreJobsButStillSimulatesThem) {
    const auto run = [&](bool prune, std::size_t* declined,
                         std::size_t* inferred) {
        std::ostringstream csv;
        orch::BatchOptions opts;
        opts.prune = prune;
        orch::BatchRunner runner(opts);
        runner.add(kV7EP, uncore_cfg(core::FaultTarget::Kind::CacheData, 25,
                                     0xD0D0));
        core::CampaignConfig gpr;
        gpr.n_faults = 25;
        gpr.seed = 0xD0D0;
        runner.add(kV7EP, gpr);
        core::write_campaign_streams(runner.run_all(), &csv, nullptr);
        if (declined) *declined = runner.prune_declined();
        if (inferred) *inferred = runner.inferred_records();
        return csv.str();
    };
    const std::string plain = run(false, nullptr, nullptr);
    std::size_t declined = 0, inferred = 0;
    const std::string pruned = run(true, &declined, &inferred);
    EXPECT_EQ(declined, 25u) << "every uncore fault run must be declined";
    EXPECT_GT(inferred, 0u) << "the GPR job must still prune";
    // Per-fault CSV carries no provenance column, so the bytes must be
    // identical either way: declined jobs simulate everything, and pruning
    // itself is exact.
    EXPECT_EQ(pruned, plain);
}
