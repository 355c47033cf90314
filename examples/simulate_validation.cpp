// simulate_validation — validate the analytic models by simulation.
//
// The paper computes *worst-case* recent data loss from window arithmetic
// and lists validation against real recovery behaviour as future work. This
// example closes that loop in simulation: it walks every level's actual
// RP creation/propagation/retention schedule in time order, injects
// thousands of failures, and compares the achieved data loss
// against the analytic bound — per scenario, for the baseline design.
//
//   $ ./simulate_validation
#include <iostream>

#include "casestudy/casestudy.hpp"
#include "report/report.hpp"
#include "sim/failure_injector.hpp"

int main() {
  namespace cs = stordep::casestudy;
  using stordep::report::Align;
  using stordep::report::TextTable;
  using stordep::report::fixed;

  const stordep::StorageDesign design = cs::baseline();
  std::cout << "Simulating RP lifecycles for '" << design.name()
            << "' over 200 days...\n";

  stordep::sim::RpSimOptions options;
  options.horizon = stordep::days(200);
  stordep::sim::RpLifecycleSimulator simulator(design, options);
  simulator.run();
  std::cout << "  " << simulator.eventsProcessed()
            << " events processed; timelines: split mirror "
            << simulator.timeline(1).size() << " RPs, backup "
            << simulator.timeline(2).size() << " RPs, vault "
            << simulator.timeline(3).size() << " RPs\n\n";

  stordep::sim::FailureInjector injector(simulator, stordep::sim::Rng(2024));

  TextTable table({"Scenario", "Samples", "Analytic worst DL", "Max observed",
                   "Mean observed", "Bound holds", "Tightness"});
  for (size_t c = 1; c < 7; ++c) table.align(c, Align::kRight);
  table.title("Monte-Carlo failure injection vs analytic worst case "
              "(10,000 samples each + dense sweep)");

  const std::vector<std::pair<std::string, stordep::FailureScenario>>
      scenarios = {{"object (24 h rollback)", cs::objectFailure()},
                   {"array failure", cs::arrayFailure()},
                   {"site disaster", cs::siteDisaster()}};

  for (const auto& [name, scenario] : scenarios) {
    const auto random = injector.validateDataLoss(scenario, 10'000);
    const auto sweep = injector.sweepDataLoss(scenario, 20'000);
    table.addRow({name, std::to_string(random.samples + sweep.samples),
                  toString(sweep.analyticWorstCase),
                  toString(std::max(random.maxObserved, sweep.maxObserved)),
                  toString(random.meanObserved),
                  (random.boundHolds && sweep.boundHolds) ? "yes" : "NO",
                  fixed(std::max(random.tightness, sweep.tightness), 3)});
  }
  std::cout << table.render() << "\n";

  std::cout
      << "Interpretation: the analytic bound holds for every injected\n"
         "failure and the dense sweep pushes the observed maximum to within\n"
         "a few percent of it — the worst case is *achieved* just before an\n"
         "RP arrival, so the paper's formulas are tight, not just safe.\n\n";

  // The bound's fine print: it assumes each level's schedule is aligned
  // with upstream arrivals. Show what an adversarial phase does.
  stordep::sim::RpSimOptions misaligned;
  misaligned.horizon = stordep::days(200);
  misaligned.alignSchedules = false;
  misaligned.phases = {stordep::Duration::zero(), stordep::Duration::zero(),
                       stordep::hours(166), stordep::hours(400)};
  stordep::sim::RpLifecycleSimulator badSim(design, misaligned);
  badSim.run();
  stordep::sim::FailureInjector badInjector(badSim, stordep::sim::Rng(7));
  const auto bad = badInjector.sweepDataLoss(cs::arrayFailure(), 10'000);
  std::cout << "With a misaligned backup schedule (fires 166 h into the "
               "week,\njust before a fresh split mirror):\n"
            << "  analytic bound " << toString(bad.analyticWorstCase)
            << ", max observed " << toString(bad.maxObserved) << " — bound "
            << (bad.boundHolds ? "holds" : "EXCEEDED (by up to one upstream "
                                           "accumulation window)")
            << "\n"
            << "This documents the model's implicit scheduling assumption "
               "(DESIGN.md).\n";
  return 0;
}
