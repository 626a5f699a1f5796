// Fault-equivalence pruning (dynamic def-use analysis over the golden run).
//
// A single-bit fault only matters once the corrupted state is *used* in a way
// that can change the machine's future: fetched as a jump/branch decision,
// used as a memory address, or written to a system register with behavioral
// side effects. Until such a "real use", the faulty machine is the golden
// machine plus a sparse XOR diff that every data instruction transforms
// *exactly* — the µISA is deterministic and fully enumerable, so the diff
// after `rd = op(rn, rm)` is just `golden_result ^ op(faulty_inputs)`.
//
// The analyzer replays the golden execution once with a sim::StepObserver
// attached and walks every fault's diff through it:
//  * faults whose diff dies (overwritten) or lies at rest when the run ends
//    are classified directly from the final diff — no simulation (Infer),
//  * faults that reach a real use are fingerprinted by (instant, diff,
//    sticky output/exit deltas); faults with identical fingerprints have
//    bit-identical faulty futures, so one representative per class is
//    simulated (Simulate) and the rest inherit its outcome (Follow).
//
// Soundness rests on the same determinism contract the execution engines
// already share: timing, cache and scheduler evolution depend only on
// addresses, branch decisions and op identities, all of which are bit-equal
// between the golden and the faulty run up to the first real use. The walk
// additionally relies on on_step firing exactly once per retired
// instruction under every engine — superblocks included (the cached
// engine keeps the observer callback per step; engine_test gates this) —
// since a skipped callback would silently corrupt the XOR diff.
// The differential check (`serep run --prune=verify`) re-simulates a seeded
// sample of inferred faults and fails loudly on any outcome mismatch.
#pragma once

#include <cstdint>
#include <vector>

#include "core/campaign.hpp"
#include "npb/npb.hpp"

namespace serep::kasm {
struct Image;
} // namespace serep::kasm

namespace serep::prune {

/// What to do for one fault of a job's fault list.
struct FaultPlan {
    enum class Action : std::uint8_t {
        Simulate, ///< class representative — run the real injection
        Follow,   ///< same class as `rep`; copy its simulated record
        Infer,    ///< outcome known from the diff walk; `outcome`/`retired` set
    };
    Action action = Action::Simulate;
    std::uint32_t rep = 0;       ///< fault-list index of the class rep (Follow)
    core::Outcome outcome = core::Outcome::Vanished; ///< Infer only
    std::uint64_t retired = 0;   ///< Infer only: retired == golden total
};

struct PruneAnalysis {
    std::vector<FaultPlan> plan; ///< parallel to the input fault list
    std::size_t n_simulate = 0;
    std::size_t n_follow = 0;
    std::size_t n_infer = 0;
};

/// Replay the scenario's golden execution once (instrumented) and classify
/// every fault of `faults`. Deterministic: same scenario + faults + engine
/// always yields the same plan. The fault list is the job's *post-filter*
/// list, so shards compute their equivalence classes independently and the
/// merged record array is identical however the space was sharded.
PruneAnalysis analyze(const npb::Scenario& s, sim::Engine engine,
                      const std::vector<core::Fault>& faults);

/// Test hook: the analyzer's *static* backward may-use liveness mask for the
/// instruction at `pc` (bit r = GPR r may be read before being overwritten on
/// some path from pc; static_live_flags_bit() = NZCV may be consumed).
/// Returns all-ones for a pc outside the image's code (conservative).
std::uint64_t static_live_mask(const kasm::Image& img, std::uint64_t pc);

/// Test hook: the bit static_live_mask() uses for the flags register.
std::uint64_t static_live_flags_bit() noexcept;

} // namespace serep::prune
