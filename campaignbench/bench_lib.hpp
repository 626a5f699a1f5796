// Testable pieces of the campaign benchmark: the workload table, seeded spec
// generation, the in-memory span log with self-time accounting, and the
// output check that compares a campaign's merged database with the
// outside-in reference pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace campaignbench {

// ---- workloads ---------------------------------------------------------

struct Workload {
    const char* name;
    /// Checked-in spec the workload is generated from, relative to the
    /// repository root.
    const char* mini_spec;
    /// Campaign inputs one run generates, each the mini spec with its own
    /// fault seed. Chosen so one campaign of each lasts 9-12 s in all on one
    /// thread: a run then averages over enough faults that the rare long
    /// runs (Hang tails) one seed draws move its figures little.
    unsigned inputs;
    /// Checked-in report the mini spec itself yields, relative to the
    /// repository root; nullptr when none is checked in.
    const char* golden_report;
};

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// Fault-seed offset of input `input` of a run with seed `run_seed`: runs
/// with different seeds draw disjoint offsets, and input 0 of seed 0 is the
/// checked-in spec's own seed.
std::uint64_t input_seed(const Workload& w, std::uint64_t run_seed,
                         unsigned input) noexcept;

/// One campaign input: `mini_json` loaded as an exp::ExperimentSpec with
/// fault.seed advanced by `seed_offset`, engine.threads set to `threads`
/// unless it is 0, and — when `out_prefix` is non-empty — every output path
/// moved under that prefix. Returned as canonical spec JSON, the only thing
/// the program is handed.
std::string generate_spec(const std::string& mini_json, std::uint64_t seed_offset,
                          unsigned threads, const std::string& out_prefix);

// ---- spans -------------------------------------------------------------

/// Layers the traced pass times. Each value names the public call the span
/// wraps (see README.md for the metric each feeds).
enum class Layer : std::uint8_t {
    Scenario,      ///< one distinct scenario's golden task (root)
    MakeMachine,   ///< npb::make_machine
    Golden,        ///< orch::run_golden_with_ladder
    CaptureGolden, ///< core::capture_golden
    FaultList,     ///< core::make_fault_list
    PruneAnalyze,  ///< prune::analyze
    FaultRun,      ///< one simulated fault (root)
    Restore,       ///< CheckpointLadder::clone_nearest
    FastForward,   ///< Machine::run_until(strike)
    ApplyFault,    ///< core::apply_fault
    Tail,          ///< Machine::run_until(budget)
    Classify,      ///< core::classify
    Count
};
const char* layer_name(Layer l) noexcept;

struct Span {
    Layer layer = Layer::Scenario;
    std::int32_t parent = -1; ///< index in the same log; -1 = root
    std::uint64_t t0 = 0;     ///< steady-clock ns
    std::uint64_t t1 = 0;
    std::uint32_t job = 0;    ///< plan job index (or scenario index)
    std::uint32_t fault = 0;  ///< fault-list ordinal within the job
    std::uint32_t thread = 0; ///< thread_index() of the recording thread
    std::uint8_t tag = 0;     ///< Tail / FaultRun: the run's outcome
};

std::uint64_t now_ns() noexcept;
/// Small dense id of the calling thread, for the trace file's tracks.
std::uint32_t thread_index() noexcept;

/// Spans of one task, recorded by one thread. Nesting follows scope order.
class SpanLog {
public:
    class Scope {
    public:
        Scope(SpanLog& log, std::size_t index) : log_(log), index_(index) {}
        ~Scope() { log_.close(index_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        std::size_t index() const noexcept { return index_; }

    private:
        SpanLog& log_;
        std::size_t index_;
    };

    /// Open a span as a child of the innermost open one.
    Scope open(Layer layer, std::uint32_t job, std::uint32_t fault);
    std::vector<Span> spans;

private:
    void close(std::size_t index) noexcept;
    std::vector<std::int32_t> stack_;
};

/// Self time of each span: its duration minus the part of [t0, t1) covered
/// by the union of its direct children's intervals.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

// ---- output check ------------------------------------------------------

/// FNV-1a 64 of `bytes`, as 16 hex digits.
std::string digest(const std::string& bytes);

/// Compare a campaign's merged per-fault CSV with the reference CSV built
/// from the outside-in pass. Returns "" when both hold exactly
/// `fault_space` records and agree record for record; otherwise a message
/// naming the first disagreement.
std::string compare_databases(const std::string& merged_csv,
                              const std::string& reference_csv,
                              std::size_t fault_space);

} // namespace campaignbench
