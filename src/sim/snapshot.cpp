#include "sim/snapshot.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace serep::sim {

namespace {
/// Non-memory Machine state allowance (register files, caches, counters,
/// outputs — a few KB in practice, padded generously).
constexpr std::size_t kShellAllowance = 64u << 10;
} // namespace

std::size_t machine_footprint_bytes(const Machine& m) noexcept {
    return static_cast<std::size_t>(m.mem().payload_bytes()) + kShellAllowance;
}

std::size_t MachineDelta::footprint_bytes() const noexcept {
    return bytes.size() + pages.size() * sizeof(std::uint32_t) + kShellAllowance;
}

MachineDelta make_machine_delta(Machine& cur, const Machine& base) {
    const Memory& bm = base.mem();
    util::check(cur.mem().has_payload() && bm.has_payload() &&
                    cur.mem().phys_size() == bm.phys_size(),
                "make_machine_delta: geometry mismatch or shell input");
    // Copy the non-memory state without ever duplicating guest memory: move
    // cur's payload aside, take the (now cheap) shell copy, reinstall.
    std::vector<std::uint8_t> payload = cur.mem().take_payload();
    MachineDelta d{cur, {}, {}};
    cur.mem().set_payload(std::move(payload));

    constexpr std::uint64_t kPage = isa::layout::kPageSize;
    const Memory& cm = cur.mem();
    const std::vector<std::uint8_t>& dirty = cm.dirty_pages();
    for (std::uint64_t p = 0; p < cm.page_count(); ++p) {
        if (!dirty[p]) continue; // clean since base copy => identical to base
        const std::uint8_t* cp = cm.page_data(p);
        if (std::memcmp(cp, bm.page_data(p), kPage) == 0) continue;
        d.pages.push_back(static_cast<std::uint32_t>(p));
        d.bytes.insert(d.bytes.end(), cp, cp + kPage);
    }
    return d;
}

Machine restore_machine_delta(const MachineDelta& d, const Machine& base) {
    Machine out = d.shell; // cheap: the shell holds no memory payload
    out.mem().clone_payload_from(base.mem());
    constexpr std::uint64_t kPage = isa::layout::kPageSize;
    for (std::size_t i = 0; i < d.pages.size(); ++i)
        out.mem().write_page(d.pages[i], d.bytes.data() + i * kPage);
    return out;
}

std::uint64_t restore_machine_delta_into(Machine& dst, const MachineDelta& d,
                                         const Machine& base) {
    constexpr std::uint64_t kPage = isa::layout::kPageSize;
    std::uint64_t reverted = 0;
    std::vector<std::uint8_t> payload =
        dst.mem().take_reverted_payload(base.mem(), reverted);
    dst = d.shell; // cheap: the shell holds no memory payload
    dst.mem().adopt_payload(std::move(payload), base.mem());
    for (std::size_t i = 0; i < d.pages.size(); ++i)
        dst.mem().write_page(d.pages[i], d.bytes.data() + i * kPage);
    return (reverted + d.pages.size()) * kPage;
}

RunStatus run_with_checkpoints(Machine& m, std::uint64_t stride,
                               std::uint64_t stop_at,
                               const std::function<void(const Machine&)>& on_checkpoint) {
    if (stride == 0 || !on_checkpoint) return m.run_until(stop_at);
    while (m.status() == RunStatus::Running && m.total_retired() < stop_at) {
        const std::uint64_t boundary =
            (m.total_retired() / stride + 1) * stride;
        m.run_until(std::min(boundary, stop_at));
        if (m.status() == RunStatus::Running && m.total_retired() < stop_at)
            on_checkpoint(m);
    }
    return m.status();
}

} // namespace serep::sim
