// Campaign benchmark: end-to-end campaign time on one workload, plus an
// outside-in per-layer trace. See README.md for the metrics and workloads.
//
//   campaign_bench --workload W --seed N --seconds S --trace 0|1
//                  --root REPO --bench-dir DIR --work DIR
//
// One run generates the workload's campaign inputs from the seed. It runs one
// untimed warm-up campaign; then times campaigns, cycling through the inputs,
// through exp::run_experiment with telemetry off until S seconds have passed,
// with a few set-ups (spec load + plan + one npb::make_machine per distinct
// scenario) timed before each; then runs the outside-in reference pass on every
// input, which re-composes every fault run from the layers' public calls and
// must reproduce that input's merged database record for record. --trace 1
// adds a telemetry-on campaign for the program's own counters and prints the
// per-layer table of the first input instead of the end-to-end metrics. The
// last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hpp"
#include "core/campaign.hpp"
#include "exp/driver.hpp"
#include "exp/plan.hpp"
#include "npb/npb.hpp"
#include "orch/batch_runner.hpp"
#include "orch/checkpoint.hpp"
#include "orch/scheduler.hpp"
#include "orch/shard.hpp"
#include "prune/prune.hpp"
#include "sim/snapshot.hpp"
#include "stats/report.hpp"
#include "stats/tally.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace {

using namespace serep;
using campaignbench::Layer;
using campaignbench::Span;
using campaignbench::SpanLog;
using campaignbench::now_ns;

/// Set-ups before each timed campaign; setup_s is the median of all of them,
/// so like campaign_s it samples the whole timed window.
constexpr int kSetupsPerCampaign = 3;
/// Pool threads of every timed campaign and of the traced pass. One thread
/// leaves the host's other vCPUs to the rest of the machine, so neighbours
/// and the guest scheduler move the timings least.
constexpr unsigned kCampaignThreads = 1;
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::string root = ".";
    std::string bench_dir = "campaignbench";
    std::string work;
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        util::check_usage(i + 1 < argc, "missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = std::stoi(v);
        else if (k == "--root") a.root = v;
        else if (k == "--bench-dir") a.bench_dir = v;
        else if (k == "--work") a.work = v;
        else throw util::UsageError("unknown flag " + k);
    }
    util::check_usage(!a.workload.empty(), "--workload is required");
    util::check_usage(!a.work.empty(), "--work is required");
    util::check_usage(a.trace == 0 || a.trace == 1, "--trace takes 0 or 1");
    util::check_usage(a.seconds > 0, "--seconds must be positive");
    return a;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    util::check(in.good(), "cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
    return static_cast<double>(t1 - t0) * 1e-9;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Ordered metric table: printed by name with its unit, then as JSON.
class Metrics {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        rows_.push_back({name, value, unit});
    }
    void print_table(std::FILE* f) const {
        for (const Row& r : rows_)
            std::fprintf(f, "  %-30s %18.9g %s\n", r.name.c_str(), r.value,
                         r.unit.c_str());
    }
    /// Values keep every digit (%.17g): a timing must not be rounded.
    std::string json() const {
        std::string out = "{";
        for (const Row& r : rows_) {
            char value[32];
            std::snprintf(value, sizeof value, "%.17g",
                          std::isfinite(r.value) ? r.value : 0.0);
            if (out.size() > 1) out += ", ";
            out += "\"" + util::json_escape(r.name) + "\": {\"value\": " +
                   value + ", \"unit\": \"" + util::json_escape(r.unit) +
                   "\"}";
        }
        return out + "}";
    }

private:
    struct Row {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

// ---- the program, end to end --------------------------------------------

struct CampaignOutput {
    double wall_s = 0;
    std::size_t records = 0;     ///< fault records written (inferred included)
    std::string csv;             ///< merged per-fault database
    std::string report;          ///< markdown report
    std::vector<std::string> shard_dbs;
};

/// One whole campaign exactly as `serep run SPEC` does it (no resume, so
/// every output is rewritten), timed from spec text to the last report byte.
CampaignOutput run_campaign(const std::string& spec_text) {
    CampaignOutput out;
    const std::uint64_t t0 = now_ns();
    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    exp::DriverOptions opts;
    opts.resume = false;
    opts.log = nullptr;
    const exp::DriverResult res = exp::run_experiment(plan, opts);
    out.wall_s = seconds_between(t0, now_ns());
    out.records = res.injected;
    out.csv = read_file(plan.csv_path());
    out.report = read_file(plan.spec().report_md);
    for (unsigned k = 0; k < plan.shard_count(); ++k)
        out.shard_dbs.push_back(read_file(plan.shard_db_path(k)));
    return out;
}

/// Distinct scenarios of a plan (BatchRunner's golden-cache identity) and
/// each job's index into them.
struct ScenarioSet {
    std::vector<npb::Scenario> scenarios;
    std::vector<std::size_t> of_job;
};

ScenarioSet distinct_scenarios(const exp::ExperimentPlan& plan) {
    ScenarioSet set;
    std::vector<std::string> keys;
    for (const exp::PlannedJob& j : plan.jobs()) {
        const std::string key = orch::scenario_cache_key(j.scenario);
        const auto it = std::find(keys.begin(), keys.end(), key);
        set.of_job.push_back(static_cast<std::size_t>(it - keys.begin()));
        if (it == keys.end()) {
            keys.push_back(key);
            set.scenarios.push_back(j.scenario);
        }
    }
    return set;
}

/// The fixed cost before any guest instruction runs.
double setup_once(const std::string& spec_text) {
    const std::uint64_t t0 = now_ns();
    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    for (const npb::Scenario& s : distinct_scenarios(plan).scenarios) {
        sim::Machine m = npb::make_machine(s, false);
        util::check(m.status() == sim::RunStatus::Running,
                    "machine not runnable: " + s.name());
    }
    return seconds_between(t0, now_ns());
}

// ---- the outside-in pass --------------------------------------------------

struct RunFacts {
    std::uint64_t restore_bytes = 0;
    std::uint64_t ff_steps = 0;
    std::uint64_t tail_steps = 0;
    bool watchdog = false;
};

struct Reference {
    std::string csv;             ///< header + every record, job order
    std::size_t fault_space = 0;
    std::vector<Span> spans;     ///< spans of the timed phases
    Metrics metrics;             ///< per-layer figures (merge/report added later)
    double pass_s = 0;           ///< plan .. end of the timed fault phase
    double fault_phase_s = 0;    ///< wall time of the timed fault phase
};

/// `threads` is the pool width of the golden, prune and fault phases.
Reference outside_in_pass(const std::string& spec_text, unsigned threads) {
    Reference ref;
    const std::uint64_t t_start = now_ns();
    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    const exp::ExperimentSpec& spec = plan.spec();
    const orch::BatchOptions bopts = exp::batch_options(spec);
    const std::vector<exp::PlannedJob>& jobs = plan.jobs();
    const ScenarioSet set = distinct_scenarios(plan);
    const std::size_t nscen = set.scenarios.size();
    orch::Scheduler pool(threads);
    SpanLog serial_log; // fault lists

    // Golden runs and ladders, one task per distinct scenario.
    orch::LadderOptions lopts = bopts.ladder;
    lopts.memory_budget_bytes /= std::max<std::size_t>(1, nscen);
    std::vector<SpanLog> golden_logs(nscen);
    std::vector<std::optional<orch::CheckpointLadder>> ladders(nscen);
    std::vector<core::GoldenRef> goldens(nscen);
    std::vector<std::uint64_t> golden_steps(nscen);
    pool.parallel_for(nscen, [&](std::size_t i) {
        SpanLog& log = golden_logs[i];
        const auto idx = static_cast<std::uint32_t>(i);
        const SpanLog::Scope root = log.open(Layer::Scenario, idx, 0);
        sim::Machine m = [&] {
            const SpanLog::Scope s = log.open(Layer::MakeMachine, idx, 0);
            return npb::make_machine(set.scenarios[i], false);
        }();
        m.set_engine(bopts.engine);
        {
            const SpanLog::Scope s = log.open(Layer::Golden, idx, 0);
            ladders[i].emplace(orch::run_golden_with_ladder(m, lopts));
        }
        util::check(m.status() == sim::RunStatus::Shutdown && m.exit_code() == 0,
                    "golden run failed: " + set.scenarios[i].name());
        {
            const SpanLog::Scope s = log.open(Layer::CaptureGolden, idx, 0);
            goldens[i] = core::capture_golden(m);
        }
        golden_steps[i] = m.total_retired();
    });

    // Fault lists and watchdog budgets (BatchRunner's formula).
    std::vector<std::vector<core::Fault>> faults(jobs.size());
    std::vector<std::uint64_t> budget(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::size_t s = set.of_job[j];
        {
            const SpanLog::Scope scope = serial_log.open(
                Layer::FaultList, static_cast<std::uint32_t>(j), 0);
            faults[j] = core::make_fault_list(ladders[s]->base(), goldens[s],
                                              jobs[j].cfg);
        }
        budget[j] = static_cast<std::uint64_t>(
                        static_cast<double>(goldens[s].total_retired) *
                        jobs[j].cfg.watchdog_factor) +
                    200'000;
        ref.fault_space += faults[j].size();
    }

    // Pruning: the campaign analyzes each shard's slice of each job's list
    // and simulates only the class representatives. Mirror that to know
    // which runs it simulates; the others are still simulated below, untimed,
    // to check every inferred record against full simulation.
    std::vector<std::vector<char>> simulated(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        simulated[j].assign(faults[j].size(), bopts.prune ? 0 : 1);
    std::vector<SpanLog> prune_logs;
    if (bopts.prune) {
        util::check(!plan.weighted(),
                    "the benchmark mirrors the uniform shard cut only");
        const unsigned n = plan.shard_count();
        prune_logs.resize(jobs.size() * n);
        pool.parallel_for(jobs.size() * n, [&](std::size_t item) {
            const std::size_t j = item / n;
            const orch::ShardPlan cut{static_cast<unsigned>(item % n), n};
            std::vector<std::uint32_t> index;
            std::vector<core::Fault> slice;
            for (std::uint32_t i = 0; i < faults[j].size(); ++i)
                if (cut.owns(faults[j][i])) {
                    index.push_back(i);
                    slice.push_back(faults[j][i]);
                }
            if (slice.empty()) return;
            prune::PruneAnalysis pa = [&] {
                const SpanLog::Scope s = prune_logs[item].open(
                    Layer::PruneAnalyze, static_cast<std::uint32_t>(j), 0);
                return prune::analyze(jobs[j].scenario, bopts.engine, slice);
            }();
            for (std::size_t t = 0; t < slice.size(); ++t)
                simulated[j][index[t]] =
                    pa.plan[t].action == prune::FaultPlan::Action::Simulate;
        });
    }

    // The fault loop: the public calls BatchRunner composes, in order.
    std::vector<std::vector<core::FaultRecord>> records(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        records[j].resize(faults[j].size());
    const auto simulate = [&](std::uint32_t j, std::uint32_t i, SpanLog& log,
                              RunFacts& facts) {
        const core::Fault& f = faults[j][i];
        const std::size_t s = set.of_job[j];
        const SpanLog::Scope root = log.open(Layer::FaultRun, j, i);
        sim::Machine run = [&] {
            const SpanLog::Scope sc = log.open(Layer::Restore, j, i);
            return ladders[s]->clone_nearest(f.at_retired);
        }();
        facts.restore_bytes = sim::machine_footprint_bytes(run);
        const std::uint64_t clone_retired = run.total_retired();
        {
            const SpanLog::Scope sc = log.open(Layer::FastForward, j, i);
            run.run_until(f.at_retired);
        }
        facts.ff_steps = run.total_retired() - clone_retired;
        {
            const SpanLog::Scope sc = log.open(Layer::ApplyFault, j, i);
            core::apply_fault(run, f.target);
        }
        const std::uint64_t strike_retired = run.total_retired();
        std::size_t tail_span = 0;
        {
            const SpanLog::Scope sc = log.open(Layer::Tail, j, i);
            tail_span = sc.index();
            run.run_until(budget[j]);
        }
        facts.tail_steps = run.total_retired() - strike_retired;
        facts.watchdog = run.status() == sim::RunStatus::Running;
        core::FaultRecord rec;
        rec.fault = f;
        {
            const SpanLog::Scope sc = log.open(Layer::Classify, j, i);
            rec.outcome = core::classify(run, goldens[s], facts.watchdog);
        }
        rec.retired = run.total_retired();
        log.spans[tail_span].tag = log.spans[root.index()].tag =
            static_cast<std::uint8_t>(rec.outcome);
        records[j][i] = rec;
    };

    std::vector<std::pair<std::uint32_t, std::uint32_t>> timed, check_only;
    for (std::uint32_t j = 0; j < jobs.size(); ++j)
        for (std::uint32_t i = 0; i < faults[j].size(); ++i)
            (simulated[j][i] ? timed : check_only).emplace_back(j, i);
    std::vector<SpanLog> run_logs(timed.size());
    std::vector<RunFacts> facts(timed.size());
    const std::uint64_t f0 = now_ns();
    pool.parallel_for(timed.size(), [&](std::size_t t) {
        simulate(timed[t].first, timed[t].second, run_logs[t], facts[t]);
    });
    const std::uint64_t f1 = now_ns();
    ref.pass_s = seconds_between(t_start, f1);
    std::vector<RunFacts> check_facts(check_only.size());
    pool.parallel_for(check_only.size(), [&](std::size_t t) {
        SpanLog discard;
        simulate(check_only[t].first, check_only[t].second, discard,
                 check_facts[t]);
    });

    // Reference database: the CSV the merged database must equal.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        core::CampaignResult r;
        r.scenario = jobs[j].scenario;
        r.records = std::move(records[j]);
        const std::string csv = core::campaign_csv(r);
        ref.csv += j == 0 ? csv : csv.substr(csv.find('\n') + 1);
        records[j] = std::move(r.records);
    }

    // Gather spans (timed phases only) and per-layer self times.
    const auto gather = [&](const std::vector<SpanLog>& logs) {
        for (const SpanLog& log : logs) {
            const std::int32_t base = static_cast<std::int32_t>(ref.spans.size());
            for (Span s : log.spans) {
                if (s.parent >= 0) s.parent += base;
                ref.spans.push_back(s);
            }
        }
    };
    gather(golden_logs);
    gather({serial_log});
    gather(prune_logs);
    gather(run_logs);
    const std::vector<std::uint64_t> self = campaignbench::self_times(ref.spans);
    std::vector<double> layer_s(kLayers, 0);
    std::vector<double> tail_s(core::kOutcomeCount, 0);
    double run_total_s = 0;
    for (std::size_t k = 0; k < ref.spans.size(); ++k) {
        const Span& s = ref.spans[k];
        layer_s[static_cast<std::size_t>(s.layer)] += self[k] * 1e-9;
        if (s.layer == Layer::Tail) tail_s[s.tag] += self[k] * 1e-9;
        if (s.layer == Layer::FaultRun) run_total_s += (s.t1 - s.t0) * 1e-9;
    }
    const auto L = [&](Layer l) { return layer_s[static_cast<std::size_t>(l)]; };

    // Exact work counts.
    std::uint64_t restore_bytes = 0, ff_steps = 0, watchdog_runs = 0;
    std::vector<std::uint64_t> tail_steps(core::kOutcomeCount, 0);
    for (std::size_t t = 0; t < timed.size(); ++t) {
        const core::FaultRecord& rec = records[timed[t].first][timed[t].second];
        restore_bytes += facts[t].restore_bytes;
        ff_steps += facts[t].ff_steps;
        tail_steps[static_cast<std::size_t>(rec.outcome)] += facts[t].tail_steps;
    }
    std::vector<std::uint64_t> runs(core::kOutcomeCount, 0);
    for (const auto& job : records)
        for (const core::FaultRecord& rec : job)
            ++runs[static_cast<std::size_t>(rec.outcome)];
    for (const RunFacts& f : facts) watchdog_runs += f.watchdog;
    for (const RunFacts& f : check_facts) watchdog_runs += f.watchdog;
    std::uint64_t all_golden_steps = 0, ladder_peak = 0;
    for (std::size_t i = 0; i < nscen; ++i) {
        all_golden_steps += golden_steps[i];
        ladder_peak += ladders[i]->peak_footprint_bytes();
    }
    std::uint64_t all_tail_steps = 0;
    for (std::uint64_t v : tail_steps) all_tail_steps += v;

    const double fault_phase_s = seconds_between(f0, f1);
    ref.fault_phase_s = fault_phase_s;
    Metrics& m = ref.metrics;
    m.add("npb.make_machine_s", L(Layer::MakeMachine), "s");
    m.add("orch.golden_s", L(Layer::Golden), "s");
    m.add("orch.golden_steps", static_cast<double>(all_golden_steps), "steps");
    m.add("orch.ladder_peak_bytes", static_cast<double>(ladder_peak), "B");
    m.add("core.capture_golden_s", L(Layer::CaptureGolden), "s");
    m.add("core.fault_list_s", L(Layer::FaultList), "s");
    m.add("orch.restore_s", L(Layer::Restore), "s");
    m.add("orch.restore_bytes", static_cast<double>(restore_bytes), "B");
    m.add("sim.ff_s", L(Layer::FastForward), "s");
    m.add("sim.ff_steps", static_cast<double>(ff_steps), "steps");
    m.add("core.apply_fault_s", L(Layer::ApplyFault), "s");
    m.add("sim.tail_s", L(Layer::Tail), "s");
    for (unsigned o = 0; o < core::kOutcomeCount; ++o) {
        const std::string name =
            core::outcome_name(static_cast<core::Outcome>(o));
        m.add("sim.tail_share." + name, ratio(tail_s[o], L(Layer::Tail)),
              "ratio");
        m.add("sim.tail_steps." + name, static_cast<double>(tail_steps[o]),
              "steps");
    }
    m.add("sim.tail_vanished_share",
          ratio(static_cast<double>(tail_steps[0]),
                static_cast<double>(all_tail_steps)),
          "ratio");
    m.add("sim.steps_per_s",
          ratio(static_cast<double>(ff_steps + all_tail_steps),
                L(Layer::FastForward) + L(Layer::Tail)),
          "steps/s");
    m.add("core.classify_s", L(Layer::Classify), "s");
    m.add("core.classify_us_per_run",
          ratio(L(Layer::Classify) * 1e6, static_cast<double>(timed.size())),
          "us");
    for (unsigned o = 0; o < core::kOutcomeCount; ++o)
        m.add(std::string("core.runs.") +
                  core::outcome_name(static_cast<core::Outcome>(o)),
              static_cast<double>(runs[o]), "count");
    m.add("core.watchdog_runs", static_cast<double>(watchdog_runs), "count");
    m.add("prune.analyze_share", ratio(L(Layer::PruneAnalyze), ref.pass_s),
          "ratio");
    m.add("prune.simulated_share",
          ratio(static_cast<double>(timed.size()),
                static_cast<double>(ref.fault_space)),
          "ratio");
    m.add("orch.pool_busy_frac",
          ratio(run_total_s, pool.threads() * fault_phase_s), "ratio");
    m.add("trace.fault_phase_s", fault_phase_s, "s");
    m.add("trace.unaccounted_share", ratio(L(Layer::FaultRun), run_total_s),
          "ratio");
    return ref;
}

/// Chrome trace-event JSON of the pass's spans (load in Perfetto).
void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<Span>& spans) {
    std::ofstream os(path);
    util::check(os.good(), "cannot write " + path);
    util::JsonWriter w(os);
    std::uint64_t t_min = ~0ULL;
    for (const Span& s : spans) t_min = std::min(t_min, s.t0);
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const Span& s = spans[k];
        w.begin_object();
        w.key("name").value(campaignbench::layer_name(s.layer));
        w.key("ph").value("X");
        w.key("ts").value(static_cast<double>(s.t0 - t_min) * 1e-3);
        w.key("dur").value(static_cast<double>(s.t1 - s.t0) * 1e-3);
        w.key("pid").value(1);
        w.key("tid").value(s.thread);
        w.key("args").begin_object();
        w.key("workload").value(workload);
        w.key("job").value(s.job);
        w.key("fault").value(s.fault);
        if (s.layer == Layer::Tail || s.layer == Layer::FaultRun)
            w.key("outcome").value(
                core::outcome_name(static_cast<core::Outcome>(s.tag)));
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
}

/// Total ns of one program span from a telemetry metrics document.
double program_span_s(const util::JsonValue& metrics, const std::string& name) {
    const util::JsonValue* span = metrics.at("spans").find(name);
    return span ? span->at("total_ns").as_double() * 1e-9 : 0;
}

/// One generated campaign input of a run, and what its campaigns gave.
struct Input {
    std::string spec;
    std::optional<CampaignOutput> first; ///< the bytes every repeat must give
    std::vector<double> walls;           ///< timed campaigns that passed
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

int run(const Args& args) {
    const campaignbench::Workload* wl = campaignbench::find_workload(args.workload);
    util::check_usage(wl != nullptr, "unknown workload " + args.workload);
    const std::string dir = args.work + "/" + wl->name;
    std::filesystem::create_directories(dir);
    const std::string mini = read_file(args.root + "/" + wl->mini_spec);
    std::vector<Input> inputs(wl->inputs);
    for (unsigned k = 0; k < wl->inputs; ++k)
        inputs[k].spec = campaignbench::generate_spec(
            mini, campaignbench::input_seed(*wl, args.seed, k), kCampaignThreads,
            dir + "/run" + std::to_string(k));
    std::vector<std::string> problems;

    // One campaign of input k. Its first output becomes the bytes every
    // later campaign of k must reproduce, and the reference pass checks.
    const auto attempt = [&](unsigned k) -> std::optional<double> {
        Input& in = inputs[k];
        ++in.attempted;
        try {
            CampaignOutput c = run_campaign(in.spec);
            if (!in.first) {
                in.first = std::move(c);
                return in.first->wall_s;
            }
            if (c.csv == in.first->csv && c.report == in.first->report &&
                c.records == in.first->records)
                return c.wall_s;
            problems.push_back("input " + std::to_string(k) +
                               ": campaign outputs differ from its first's");
        } catch (const std::exception& e) {
            problems.push_back("input " + std::to_string(k) +
                               ": campaign threw: " + e.what());
        }
        ++in.failed;
        return std::nullopt;
    };

    // Warm-up campaign: run and checked, not timed (first-touch heap pages).
    attempt(0);
    // Timed campaigns, cycling through the inputs, until S seconds have
    // passed and every input has been timed at least once. The set-ups in
    // between are not part of any campaign's wall time.
    std::vector<double> setup;
    const std::uint64_t loop0 = now_ns();
    for (std::size_t n = 0;
         n < wl->inputs || seconds_between(loop0, now_ns()) < args.seconds; ++n) {
        const unsigned k = static_cast<unsigned>(n % wl->inputs);
        for (int r = 0; r < kSetupsPerCampaign; ++r)
            setup.push_back(setup_once(inputs[k].spec));
        if (const std::optional<double> wall = attempt(k))
            inputs[k].walls.push_back(*wall);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    // campaign_s: the mean over inputs of each input's median wall time.
    double campaign_s = 0, records = 0;
    bool timed_all = true;
    for (const Input& in : inputs) {
        timed_all = timed_all && !in.walls.empty();
        campaign_s += median(in.walls) / wl->inputs;
        if (in.first) records += static_cast<double>(in.first->records) / wl->inputs;
    }
    if (!timed_all) problems.push_back("an input has no timed campaign");

    // Output check of every input. A failure fails all of that input's
    // campaigns, since they all produced its first campaign's bytes. Input
    // 0's pass is the traced one: on the campaigns' pool width with --trace
    // 1, on the host's width otherwise, since then it only checks.
    const unsigned check_threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    const util::JsonValue expected =
        util::json_parse(read_file(args.bench_dir + "/expected.json"));
    const util::JsonValue* want = expected.at("workloads").find(wl->name);
    std::optional<Reference> traced;
    for (unsigned k = 0; k < wl->inputs; ++k) {
        Input& in = inputs[k];
        const std::string tag = "input " + std::to_string(k) + ": ";
        const auto fail_input = [&](const std::string& why) {
            problems.push_back(tag + why);
            in.failed = in.attempted;
        };
        if (!in.first) continue;
        std::optional<Reference> ref;
        try {
            ref = outside_in_pass(in.spec, args.trace && k == 0 ? kCampaignThreads
                                                                : check_threads);
        } catch (const std::exception& e) {
            fail_input(std::string("reference pass threw: ") + e.what());
            continue;
        }
        const std::string diff = campaignbench::compare_databases(
            in.first->csv, ref->csv, ref->fault_space);
        if (!diff.empty()) fail_input(diff);
        if (in.first->records != ref->fault_space)
            fail_input("campaign wrote " + std::to_string(in.first->records) +
                       " records for a fault space of " +
                       std::to_string(ref->fault_space));
        if (args.seed == 0) {
            const std::string csv = campaignbench::digest(in.first->csv);
            const std::string md = campaignbench::digest(in.first->report);
            const util::JsonValue* digests =
                want ? want->find("inputs") : nullptr;
            if (!digests || digests->arr.size() != wl->inputs)
                fail_input("expected.json records no digests for " + args.workload);
            else if (digests->arr[k].at("csv_fnv1a").as_string() != csv ||
                     digests->arr[k].at("report_fnv1a").as_string() != md)
                fail_input("default-seed digests csv=" + csv + " report=" + md +
                           " differ from expected.json");
            // Input 0 at seed 0 is the checked-in spec itself.
            if (k == 0 && wl->golden_report &&
                in.first->report != read_file(args.root + "/" + wl->golden_report))
                fail_input(std::string("report differs from ") + wl->golden_report);
        }
        if (k == 0) traced = std::move(ref);
    }

    std::size_t attempted = 0, failed = 0, timed = 0;
    for (const Input& in : inputs) {
        attempted += in.attempted;
        failed += in.failed;
        timed += in.walls.size();
    }
    Metrics out;
    if (args.trace == 0) {
        out.add("campaign_s", campaign_s, "s");
        out.add("faults_per_s", ratio(records, campaign_s), "faults/s");
        out.add("setup_s", median(setup), "s");
        out.add("peak_rss_mb", peak_rss_mb, "MB");
        out.add("ok_frac",
                ratio(static_cast<double>(attempted - failed),
                      static_cast<double>(attempted)),
                "ratio");
    } else if (traced && inputs[0].first) {
        const CampaignOutput& first = *inputs[0].first;
        // Program-side counters and spans from one telemetry-on campaign of
        // input 0, which must also reproduce its bytes.
        telemetry::reset();
        telemetry::set_enabled(true);
        ++attempted;
        try {
            const CampaignOutput tc = run_campaign(inputs[0].spec);
            if (tc.csv != first.csv || tc.report != first.report) {
                ++failed;
                problems.push_back("telemetry-on campaign outputs differ");
            }
        } catch (const std::exception& e) {
            ++failed;
            problems.push_back(std::string("telemetry-on campaign threw: ") +
                               e.what());
        }
        const double golden_runs =
            static_cast<double>(telemetry::counter_value("batch.golden_runs"));
        const double masked =
            static_cast<double>(telemetry::counter_value("uncore.masked_no_line"));
        const double injected =
            static_cast<double>(telemetry::counter_value("uncore.injected"));
        const util::JsonValue prog = util::json_parse(
            telemetry::render_metrics_json({"campaignbench", ""}));
        telemetry::set_enabled(false);
        telemetry::reset();

        // Merge and report, timed on input 0's first shard databases.
        std::ostringstream csv, jsonl;
        const std::uint64_t m0 = now_ns();
        orch::merge_shards(first.shard_dbs, &csv, &jsonl);
        const std::uint64_t m1 = now_ns();
        exp::ExperimentSpec spec = exp::ExperimentSpec::load(inputs[0].spec);
        stats::OutcomeTally tally;
        tally.add_database(jsonl.str(), "merged");
        stats::ReportOptions ropts;
        ropts.confidence = spec.confidence;
        ropts.top_registers = spec.top_regs;
        const std::string report = stats::render_report(tally, ropts);
        const std::uint64_t m2 = now_ns();
        if (csv.str() != first.csv || report != first.report) {
            problems.push_back("outside-in merge/report differ from the campaign's");
            failed = attempted;
        }
        const double merge_s = seconds_between(m0, m1);
        const double report_s = seconds_between(m1, m2);

        exp::ExperimentPlan plan(std::move(spec));
        const double nscen =
            static_cast<double>(distinct_scenarios(plan).scenarios.size());
        out = std::move(traced->metrics);
        out.add("orch.golden_runs", golden_runs, "count");
        out.add("orch.golden_per_scenario", ratio(golden_runs, nscen), "ratio");
        out.add("uncore.masked_no_line_share", ratio(masked, injected), "ratio");
        out.add("orch.merge_s", merge_s, "s");
        out.add("stats.report_s", report_s, "s");
        out.add("exp.golden_phase_s", program_span_s(prog, "batch.golden"), "s");
        // Both phases run the same fault runs on the same thread count; the
        // traced one composes them from outside and records spans.
        const double inject_s = program_span_s(prog, "batch.inject");
        out.add("exp.inject_phase_s", inject_s, "s");
        out.add("trace_overhead", ratio(traced->fault_phase_s, inject_s), "ratio");
        write_spans(dir + "/spans.json", wl->name, traced->spans);
    }

    std::printf("campaignbench %s seed=%llu: %u inputs, %zu campaigns (%zu timed), "
                "%zu failed, failed_frac=%.6g\n",
                wl->name, static_cast<unsigned long long>(args.seed), wl->inputs,
                attempted, timed, failed,
                ratio(static_cast<double>(failed), static_cast<double>(attempted)));
    for (unsigned k = 0; k < wl->inputs; ++k) {
        const Input& in = inputs[k];
        std::printf("  input %u (fault.seed offset %llu) walls (s):", k,
                    static_cast<unsigned long long>(
                        campaignbench::input_seed(*wl, args.seed, k)));
        for (double w : in.walls) std::printf(" %.4f", w);
        if (in.first)
            std::printf("\n    csv fnv1a=%s report fnv1a=%s",
                        campaignbench::digest(in.first->csv).c_str(),
                        campaignbench::digest(in.first->report).c_str());
        std::printf("\n");
    }
    std::printf("  setup walls (s):");
    for (double w : setup) std::printf(" %.5f", w);
    std::printf("\n");
    for (const std::string& p : problems) std::printf("  FAILED: %s\n", p.c_str());
    out.print_table(stdout);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 && problems.empty() ? "true" : "false", attempted,
                failed, out.json().c_str());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const util::UsageError& e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 1;
    }
}
