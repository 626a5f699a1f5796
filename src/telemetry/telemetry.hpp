// Process-wide telemetry (src/telemetry/): counters, gauges, histograms,
// and hierarchical phase spans, exported as a deterministic-schema
// metrics.json sidecar and a Chrome trace-event JSON (Perfetto-loadable).
//
// Design constraints, in order:
//
//  * Strictly out of band. Nothing here ever touches a campaign output
//    stream: outcome DBs, reports, and spec hashes are byte-identical with
//    telemetry on, off, or absent (gated in CI telemetry-determinism and
//    tests/telemetry_test.cpp). Telemetry writes only the sidecar files the
//    caller names.
//
//  * Zero cost when disabled. `enabled()` is one relaxed atomic load; every
//    hook in the hot layers (engine folds, checkpoint rungs, prune tallies)
//    guards on it and the instrumented counters themselves live at coarse
//    boundaries — per golden run, per fault run, per rung — never per
//    instruction. The cached engine's burst/chain/fallback counts are plain
//    machine-local members (sim::Machine::TraceStats) folded here at run
//    completion, so the simulator's inner loops carry no telemetry calls at
//    all. bench_micro --telemetry gates the enabled-vs-disabled steps/sec
//    delta under 2%, which upper-bounds the disabled-hook cost.
//
//  * Lock-free hot counters. Each counting thread owns a slab of relaxed
//    atomics (one cell per interned metric); readers fold every slab on
//    demand. Slabs are registry-owned and survive thread exit, so counts
//    from finished pool workers persist. Gauges, histograms, and span
//    events are mutex-protected — they are touched at phase granularity.
//
// Span hierarchy (what the Perfetto view shows): the exporting tool wraps
// the run in a root span, the driver opens one span per shard / merge /
// report, and BatchRunner opens per-wave phase spans (golden+ladder, prune
// analysis, injection, prune verify) with per-scenario golden spans inside
// the pool workers — nested by containment per thread track.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace serep::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/// Master switch. Off (the default) makes every hook a cheap early-out and
/// count()/Span no-ops; nothing is recorded.
inline bool enabled() noexcept {
    return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// Interned counter handle: stable for the process lifetime (reset() zeroes
/// values but keeps the intern table, so cached ids never dangle).
using MetricId = std::uint32_t;

/// Cells per thread slab; interning more counters than this throws.
inline constexpr std::size_t kMaxCounters = 128;

/// Intern `name` (idempotent). Cheap enough for per-run call sites; hot
/// folds should cache the id in a function-local static.
MetricId counter_id(const std::string& name);

/// Add `n` to a counter in this thread's lock-free cell. No-op when
/// telemetry is disabled.
void count(MetricId id, std::uint64_t n = 1) noexcept;
void count(const std::string& name, std::uint64_t n = 1);

/// Folded value of one counter across every thread slab (0 for unknown
/// names). Used by the heartbeat snapshot and tests.
std::uint64_t counter_value(const std::string& name);

/// Set a gauge (last write wins; coarse events only).
void gauge(const std::string& name, double v);

/// Record `v` into a power-of-two-bucket histogram (count/sum/min/max plus
/// bucket tallies). Coarse events only — takes a mutex.
void observe(const std::string& name, std::uint64_t v);

/// Monotonic nanoseconds since the telemetry epoch (process start or the
/// last reset()). Timestamps in both export formats use this clock.
std::uint64_t now_ns() noexcept;

/// RAII phase span: records [construction, destruction) on this thread's
/// track with its nesting depth. No-op (and allocation-free name move
/// aside, cost-free) when telemetry is disabled at construction.
class Span {
public:
    explicit Span(std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::string name_;
    std::uint64_t t0_ = 0;
    bool live_ = false;
};

/// Build/version facts baked into the binary — `serep version` prints them
/// and every metrics.json carries them in its provenance block.
struct BuildInfo {
    std::string version;     ///< serep release string
    std::string compiler;    ///< e.g. "gcc 12.2.0" / "clang 17.0.6"
    long cxx_standard = 0;   ///< __cplusplus value (201703 for C++17)
    std::string build_type;  ///< CMAKE_BUILD_TYPE at configure time
    bool zstd = false;       ///< libzstd linked (util::zstd_available)
};
BuildInfo build_info();

/// What the exporter stamps into metrics.json besides the build info.
struct Provenance {
    std::string tool;      ///< e.g. "serep run" / "serep fleet" / "bench_micro"
    std::string spec_hash; ///< experiment spec hash; "" when no spec applies
};

/// Render the metrics sidecar. The SCHEMA is deterministic — a fixed
/// top-level key set ("schema", "provenance", "elapsed_s", "counters",
/// "gauges", "histograms", "spans") with metric names sorted — while the
/// VALUES (timings, rates) naturally vary run to run. Validated in CI by
/// scripts/check_telemetry.py against scripts/telemetry_schema.json.
std::string render_metrics_json(const Provenance& prov);

/// Render the Chrome trace-event JSON: one "ph":"X" complete event per
/// span on its thread's track plus thread_name metadata — load the file at
/// ui.perfetto.dev (or chrome://tracing) to see the nested phase spans.
std::string render_chrome_trace();

/// Write either export to a file (util::Error on I/O failure).
void write_metrics_file(const std::string& path, const Provenance& prov);
void write_trace_file(const std::string& path);

/// Compact one-line progress snapshot for the fleet heartbeat beacon:
/// {"elapsed_s":…,"runs":…,"runs_planned":…,"steps":…} — the controller
/// parses it back with fleet::parse_worker_snapshot.
std::string progress_json();

/// Zero every value (counters, gauges, histograms, spans) and restart the
/// epoch clock. Interned counter ids stay valid. Test hook.
void reset();

} // namespace serep::telemetry
