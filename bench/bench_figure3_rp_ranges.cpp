// bench_figure3_rp_ranges — regenerates paper Figure 3's quantities.
//
// "Range of RPs guaranteed to be present at a level": for each level of the
// baseline hierarchy, the time lag (youngest guaranteed RP age) and the
// oldest guaranteed RP age, plus an ASCII timeline rendering of the
// guaranteed window, cross-validated against the simulated RP schedules
// (sim/rp_simulator.hpp).
#include <algorithm>
#include <iostream>

#include "casestudy/casestudy.hpp"
#include "core/propagation.hpp"
#include "report/report.hpp"
#include "sim/rp_simulator.hpp"

int main() {
  namespace cs = stordep::casestudy;
  using stordep::report::Align;
  using stordep::report::TextTable;
  using stordep::report::fixed;

  const stordep::StorageDesign design = cs::baseline();

  std::cout << "Figure 3: guaranteed RP ranges per level (baseline)\n\n";
  std::cout << stordep::report::rpRangeTable(design).render();

  // ASCII timeline, log-ish scale: one column per bucket of age.
  std::cout << "\nGuaranteed coverage timeline (each column ~ 1 week of "
               "age, '#' = guaranteed RP coverage):\n";
  const double totalWeeks = 3 * 52.0;
  for (int level = 1; level < design.levelCount(); ++level) {
    const stordep::RpRange range = guaranteedRange(design, level);
    std::string line;
    for (int wk = 0; wk < static_cast<int>(totalWeeks); ++wk) {
      const double lo = wk * 7.0 * 86400.0;
      const double hi = (wk + 1) * 7.0 * 86400.0;
      const bool covered = range.oldestAge.secs() >= lo &&
                           range.youngestAge.secs() <= hi &&
                           !range.empty();
      line += covered ? '#' : '.';
    }
    std::cout << "  L" << level << " " << design.level(level).name() << "\n"
              << "     now[" << line << "]3 yr ago\n";
  }

  // Cross-validate against the simulated schedules: the observed age of the
  // newest visible RP at each level must stay within [transit, lag].
  std::cout << "\nCross-validation against the RP-lifecycle simulation (200 "
               "days):\n";
  stordep::sim::RpSimOptions options;
  options.horizon = stordep::days(200);
  stordep::sim::RpLifecycleSimulator sim(design, options);
  sim.run();

  TextTable check({"Level", "Analytic lag", "Max simulated age",
                   "Analytic oldest", "Within bounds"});
  for (size_t c = 1; c < 5; ++c) check.align(c, Align::kRight);
  bool allOk = true;
  for (int level = 1; level < design.levelCount(); ++level) {
    const stordep::Duration lag = rpTimeLag(design, level);
    double maxAge = 0;
    const double warmup = sim.warmupTime();
    for (double t = warmup; t < sim.horizon(); t += 3600.0) {
      const auto rp = sim.bestVisibleRp(level, t, t);
      if (rp) maxAge = std::max(maxAge, t - rp->dataTime);
    }
    const bool ok = maxAge <= lag.secs() * (1 + 1e-9);
    allOk = allOk && ok;
    check.addRow({design.level(level).name(), toString(lag),
                  toString(stordep::seconds(maxAge)),
                  toString(guaranteedRange(design, level).oldestAge),
                  ok ? "yes" : "NO"});
  }
  std::cout << check.render();
  std::cout << "\nanalytic lag bounds the simulated worst staleness at every "
               "level: "
            << (allOk ? "yes" : "NO") << "\n";
  return allOk ? 0 : 1;
}
