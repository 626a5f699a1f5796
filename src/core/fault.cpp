#include "core/fault.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "isa/layout.hpp"
#include "telemetry/telemetry.hpp"
#include "uncore/uncore.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace serep::core {

const char* outcome_name(Outcome o) noexcept {
    switch (o) {
        case Outcome::Vanished: return "Vanished";
        case Outcome::ONA: return "ONA";
        case Outcome::OMM: return "OMM";
        case Outcome::UT: return "UT";
        case Outcome::Hang: return "Hang";
    }
    return "??";
}

bool outcome_from_name(const std::string& name, Outcome& out) noexcept {
    for (unsigned o = 0; o < kOutcomeCount; ++o) {
        if (name == outcome_name(static_cast<Outcome>(o))) {
            out = static_cast<Outcome>(o);
            return true;
        }
    }
    return false;
}

const char* fault_kind_name(FaultTarget::Kind k) noexcept {
    switch (k) {
        case FaultTarget::Kind::GPR: return "gpr";
        case FaultTarget::Kind::FP: return "fp";
        case FaultTarget::Kind::MEM: return "mem";
        case FaultTarget::Kind::CacheTag: return "cache-tag";
        case FaultTarget::Kind::CacheData: return "cache-data";
        case FaultTarget::Kind::Bus: return "bus";
    }
    return "??";
}

bool fault_kind_from_name(const std::string& name, FaultTarget::Kind& out) noexcept {
    if (name == "gpr") out = FaultTarget::Kind::GPR;
    else if (name == "fp") out = FaultTarget::Kind::FP;
    else if (name == "mem") out = FaultTarget::Kind::MEM;
    else if (name == "cache-tag") out = FaultTarget::Kind::CacheTag;
    else if (name == "cache-data") out = FaultTarget::Kind::CacheData;
    else if (name == "bus") out = FaultTarget::Kind::Bus;
    else return false;
    return true;
}

bool is_uncore_kind(FaultTarget::Kind k) noexcept {
    return k == FaultTarget::Kind::CacheTag ||
           k == FaultTarget::Kind::CacheData || k == FaultTarget::Kind::Bus;
}

bool fault_kind_has_reg(FaultTarget::Kind k) noexcept {
    return k == FaultTarget::Kind::GPR || k == FaultTarget::Kind::FP;
}

namespace {
inline void fnv(std::uint64_t& h, std::uint64_t v) { util::fnv1a_u64(h, v); }
} // namespace

std::uint64_t arch_state_hash(const sim::Machine& m) {
    std::uint64_t h = util::kFnvOffset;
    for (unsigned c = 0; c < m.cores(); ++c) {
        const isa::RegFile& r = m.core(c).regs;
        for (unsigned i = 0; i < 33; ++i) fnv(h, r.x(i));
        fnv(h, r.flags().pack());
        if (isa::profile_info(r.profile()).has_fp_regs)
            for (unsigned i = 0; i < 32; ++i) fnv(h, r.v_bits(i));
    }
    return h;
}

namespace {

constexpr std::uint64_t kPage = isa::layout::kPageSize;

/// Physical byte range of process `proc`'s static data region.
std::pair<std::uint64_t, std::uint64_t> static_data_range(const sim::Machine& m,
                                                          unsigned proc) {
    return {m.mem().kern_size() + std::uint64_t{proc} * m.mem().user_size(),
            m.image().udata_size};
}

/// Record the non-zero pages overlapping [lo, lo + len) in `img`.
void capture_range(const sim::Memory& mem, std::uint64_t lo, std::uint64_t len,
                   GoldenImage& img) {
    for (std::uint64_t p = lo / kPage; p * kPage < lo + len; ++p) {
        const std::uint8_t* page = mem.page_data(p);
        if (img.page_at[p] != 0 ||
            std::all_of(page, page + kPage, [](std::uint8_t b) { return b == 0; }))
            continue;
        img.bytes.insert(img.bytes.end(), page, page + kPage);
        img.page_at[p] = static_cast<std::uint32_t>(img.bytes.size() / kPage);
    }
}

/// Does [lo, lo + len) of `mem` equal the golden image? Compares only the
/// pages dirty in either run unless `all_pages`; adds the bytes compared.
bool range_matches(const sim::Memory& mem, const GoldenImage& g, bool all_pages,
                   std::uint64_t lo, std::uint64_t len, std::uint64_t& compared) {
    static const std::uint8_t kZeroPage[kPage] = {};
    const std::vector<std::uint8_t>& dirty = mem.dirty_pages();
    const std::uint64_t hi = lo + len;
    for (std::uint64_t p = lo / kPage; p * kPage < hi; ++p) {
        if (!all_pages && !dirty[p] && !g.dirty[p]) continue;
        const std::uint64_t a = std::max(lo, p * kPage) - p * kPage;
        const std::uint64_t b = std::min(hi, (p + 1) * kPage) - p * kPage;
        const std::uint8_t* want =
            g.page_at[p] ? g.bytes.data() + (g.page_at[p] - 1) * kPage : kZeroPage;
        compared += b - a;
        if (std::memcmp(mem.page_data(p) + a, want + a, b - a) != 0) return false;
    }
    return true;
}

} // namespace

GoldenRef capture_golden(const sim::Machine& m) {
    GoldenRef g;
    g.total_retired = m.total_retired();
    g.ticks = m.time_ticks();
    g.app_start = m.app_start_retired();
    g.exit_code = m.exit_code();
    const sim::Memory& mem = m.mem();
    auto img = std::make_shared<GoldenImage>();
    img->epoch = mem.dirty_epoch();
    img->dirty = mem.dirty_pages();
    img->page_at.assign(mem.page_count(), 0);
    capture_range(mem, 0, mem.kern_size(), *img);
    for (unsigned p = 0; p < m.config().procs; ++p) {
        g.outputs.push_back(m.output(p));
        const auto [lo, len] = static_data_range(m, p);
        capture_range(mem, lo, len, *img);
    }
    g.arch_hash = arch_state_hash(m);
    g.image = std::move(img);
    return g;
}

void apply_fault(sim::Machine& m, const FaultTarget& t) {
    switch (t.kind) {
        case FaultTarget::Kind::GPR: m.flip_gpr(t.core, t.reg, t.bit); break;
        case FaultTarget::Kind::FP: m.flip_fp(t.core, t.reg, t.bit); break;
        case FaultTarget::Kind::MEM: m.flip_mem(t.phys, t.bit % 8); break;
        case FaultTarget::Kind::CacheTag:
        case FaultTarget::Kind::CacheData:
        case FaultTarget::Kind::Bus:
            uncore::inject(m, t);
            break;
    }
}

Outcome classify(const sim::Machine& m, const GoldenRef& golden, bool hit_watchdog) {
    if (m.status() == sim::RunStatus::KernelPanic) return Outcome::UT;
    if (hit_watchdog || m.status() == sim::RunStatus::Running ||
        m.status() == sim::RunStatus::Deadlock)
        return Outcome::Hang;
    // terminated: error indication?
    for (unsigned p = 0; p < m.config().procs; ++p) {
        const int code = m.proc_exit_code(p);
        if (code != 0) return Outcome::UT; // includes never-exited (-1)
    }
    if (m.exit_code() != golden.exit_code) return Outcome::UT;
    const sim::Memory& mem = m.mem();
    if (!golden.image || golden.image->page_at.size() != mem.page_count())
        util::fail("classify: golden reference has no memory image of this geometry");
    const GoldenImage& img = *golden.image;
    const bool all_pages = img.epoch != mem.dirty_epoch();
    std::uint64_t compared = 0;
    const Outcome o = [&] {
        // silent data corruption?
        for (unsigned p = 0; p < m.config().procs; ++p) {
            if (m.output(p) != golden.outputs[p]) return Outcome::OMM;
            const auto [lo, len] = static_data_range(m, p);
            if (!range_matches(mem, img, all_pages, lo, len, compared))
                return Outcome::OMM;
        }
        // architectural traces?
        if (arch_state_hash(m) != golden.arch_hash) return Outcome::ONA;
        if (!range_matches(mem, img, all_pages, 0, mem.kern_size(), compared))
            return Outcome::ONA;
        return Outcome::Vanished;
    }();
    if (telemetry::enabled()) {
        static const telemetry::MetricId kBytes =
            telemetry::counter_id("classify.bytes_compared");
        telemetry::count(kBytes, compared);
    }
    return o;
}

} // namespace serep::core
