// Nanokernel code generator.
//
// Emits the entire kernel as guest code: trap vector with full context
// save/restore, spinlock-protected run queue and scheduler with idle WFI,
// preemptive round-robin via the per-core instruction timer, and syscalls
// (exit/write/brk/threads/futex/yield/channels). Because the kernel is
// guest code operating on guest registers and kernel memory, fault
// injections genuinely corrupt scheduler state, context-switch sequences
// and syscall paths — the OS/API exposure the paper measures.
#pragma once

#include "kasm/assembler.hpp"
#include "os/klayout.hpp"

namespace serep::os {

struct KernelConfig {
    unsigned quantum = 4000;          ///< time-slice in retired instructions.
                                      ///  Also the natural upper bound on a
                                      ///  user-mode cached-engine burst: the
                                      ///  TIMER countdown it arms clips every
                                      ///  superblock budget (sim::Machine::
                                      ///  burst_trace), so preemptions land
                                      ///  on the same instruction under all
                                      ///  engines.
    std::uint64_t user_size = isa::layout::kDefaultUserSize;
    std::uint64_t kern_size = isa::layout::kDefaultKernSize;
    std::uint64_t heap_guard = 64 * 1024; ///< unmapped gap below the main stack
};

/// Emit the kernel at the assembler's current position (must be first, so
/// kernel text starts at the code base), register boot/vector entries and
/// mark the kernel/user text boundary. Returns the layout used.
KLayout build_kernel(kasm::Assembler& a, unsigned nprocs, const KernelConfig& cfg = {});

} // namespace serep::os
