// Phase-4 database tool: run an experiment spec — the paper's full
// 130-scenario campaign is examples/specs/paper_full_s.json — and write the
// merged per-fault record database (CSV), the per-campaign summaries
// (JSONL) and the joined profiling dataset (CSV): the artifacts the paper's
// data-mining tool consumes.
//
//   ./full_campaign ../examples/specs/paper_full_s.json
//
// The spec runs exactly as under `serep run SPEC.json` (shards, resume,
// reports and all); this tool then adds `<out>_dataset.csv`, the scenario x
// metric join. Filters, fault counts and engine knobs live in the spec.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/driver.hpp"
#include "mine/mining.hpp"
#include "prof/profile.hpp"
#include "util/check.hpp"

using namespace serep;

int main(int argc, char** argv) {
    try {
        util::check_usage(argc == 2, "usage: full_campaign SPEC.json");
        std::ifstream in(argv[1]);
        util::check_usage(in.good(),
                          std::string("cannot read experiment spec ") + argv[1]);
        std::ostringstream text;
        text << in.rdbuf();
        exp::ExperimentPlan plan(exp::ExperimentSpec::load(text.str()));
        const exp::ExperimentSpec& spec = plan.spec();
        util::check_usage(!spec.out.empty(),
                          "the spec needs an out prefix for its databases");
        const exp::DriverResult res = exp::run_experiment(plan);
        // A resumed adaptive experiment skips its run and returns no
        // results, so there is nothing to join.
        util::check(res.results.size() == plan.jobs().size(),
                    "no campaign results to join: the adaptive experiment "
                    "resumed complete — delete " + plan.state_path() +
                        " to re-run it");

        mine::Dataset dataset;
        for (std::size_t i = 0; i < plan.jobs().size(); ++i)
            dataset.add(res.results[i],
                        prof::profile_scenario(plan.jobs()[i].scenario));
        std::ofstream(spec.out + "_dataset.csv") << dataset.to_csv();
        std::printf("wrote %s_faults.csv (per-fault records), "
                    "%s_campaigns.jsonl (per-campaign summaries) and "
                    "%s_dataset.csv (scenario x metric join)\n",
                    spec.out.c_str(), spec.out.c_str(), spec.out.c_str());
    } catch (const util::UsageError& e) {
        std::fprintf(stderr, "full_campaign: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "full_campaign: %s\n", e.what());
        return 4;
    }
    return 0;
}
