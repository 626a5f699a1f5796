#include "bench_lib.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

#include "exp/spec.hpp"
#include "util/hash.hpp"

namespace campaignbench {

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> kWorkloads = {
        {"gpr_ep", "examples/specs/paper_mini.json", 3,
         "tests/golden/report_mini_ep.md"},
        {"mem_ser", "examples/specs/mem_mini.json", 4, nullptr},
        {"uncore_is", "examples/specs/uncore_mini.json", 8,
         "tests/golden/report_uncore_mini.md"},
        {"gpr_ep_pruned", "examples/specs/paper_mini_pruned.json", 8,
         "tests/golden/report_mini_ep.md"},
    };
    return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : workloads())
        if (name == w.name) return &w;
    return nullptr;
}

std::uint64_t input_seed(const Workload& w, std::uint64_t run_seed,
                         unsigned input) noexcept {
    return run_seed * w.inputs + input;
}

std::string generate_spec(const std::string& mini_json, std::uint64_t seed_offset,
                          unsigned threads, const std::string& out_prefix) {
    serep::exp::ExperimentSpec spec = serep::exp::ExperimentSpec::load(mini_json);
    spec.seed += seed_offset;
    if (threads != 0) spec.threads = threads;
    if (!out_prefix.empty()) {
        spec.out = out_prefix;
        if (!spec.report_md.empty()) spec.report_md = out_prefix + "_report.md";
        if (!spec.report_csv.empty()) spec.report_csv = out_prefix + "_rates.csv";
        if (!spec.report_json.empty())
            spec.report_json = out_prefix + "_figure.json";
    }
    return spec.canonical_json();
}

const char* layer_name(Layer l) noexcept {
    switch (l) {
    case Layer::Scenario: return "scenario";
    case Layer::MakeMachine: return "npb.make_machine";
    case Layer::Golden: return "orch.golden";
    case Layer::CaptureGolden: return "core.capture_golden";
    case Layer::FaultList: return "core.fault_list";
    case Layer::PruneAnalyze: return "prune.analyze";
    case Layer::FaultRun: return "fault_run";
    case Layer::Restore: return "orch.restore";
    case Layer::FastForward: return "sim.ff";
    case Layer::ApplyFault: return "core.apply_fault";
    case Layer::Tail: return "sim.tail";
    case Layer::Classify: return "core.classify";
    case Layer::Count: break;
    }
    return "?";
}

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint32_t thread_index() noexcept {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

SpanLog::Scope SpanLog::open(Layer layer, std::uint32_t job,
                             std::uint32_t fault) {
    Span s;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    s.fault = fault;
    s.thread = thread_index();
    spans.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans.size() - 1));
    spans.back().t0 = now_ns();
    return Scope(*this, spans.size() - 1);
}

void SpanLog::close(std::size_t index) noexcept {
    spans[index].t1 = now_ns();
    stack_.pop_back();
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::uint64_t lo = spans[i].t0, hi = spans[i].t1;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, cur = lo;
        for (const auto& [a0, b0] : iv) {
            const std::uint64_t a = std::max(a0, cur), b = std::min(b0, hi);
            if (b > a) {
                covered += b - a;
                cur = b;
            }
        }
        self[i] = hi - lo - covered;
    }
    return self;
}

std::string digest(const std::string& bytes) {
    std::uint64_t h = serep::util::kFnvOffset;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= serep::util::kFnvPrime;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

namespace {

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) eol = text.size();
        out.push_back(text.substr(pos, eol - pos));
        pos = eol + 1;
    }
    return out;
}

} // namespace

std::string compare_databases(const std::string& merged_csv,
                              const std::string& reference_csv,
                              std::size_t fault_space) {
    const std::vector<std::string> got = lines_of(merged_csv);
    const std::vector<std::string> want = lines_of(reference_csv);
    // One header line, then one line per fault record.
    if (got.empty() || got.size() - 1 != fault_space)
        return "merged database holds " +
               std::to_string(got.empty() ? 0 : got.size() - 1) +
               " records, the fault space is " + std::to_string(fault_space);
    if (want.size() != got.size())
        return "reference pass holds " + std::to_string(want.size() - 1) +
               " records, the merged database " +
               std::to_string(got.size() - 1);
    for (std::size_t i = 0; i < got.size(); ++i)
        if (got[i] != want[i])
            return (i == 0 ? std::string("header") :
                             "record " + std::to_string(i - 1)) +
                   ": merged database has '" + got[i] +
                   "', the outside-in simulation gives '" + want[i] + "'";
    return "";
}

} // namespace campaignbench
