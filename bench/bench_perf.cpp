// bench_perf — google-benchmark microbenchmarks of the framework itself.
//
// The paper positions the models as the inner-most loop of an automated
// design-optimization system, so evaluation throughput matters. These
// benchmarks measure the cost of a full evaluate() (all four output
// metrics), its sub-models, design-space search, JSON round-trips, and the
// RP-lifecycle simulator's schedule walk and data-loss queries.
#include <benchmark/benchmark.h>

#include "casestudy/casestudy.hpp"
#include "config/design_io.hpp"
#include "optimizer/search.hpp"
#include "sim/rp_simulator.hpp"

namespace {

namespace cs = stordep::casestudy;

void BM_EvaluateBaseline(benchmark::State& state) {
  const stordep::StorageDesign design = cs::baseline();
  const auto scenario = cs::siteDisaster();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stordep::evaluate(design, scenario));
  }
}
BENCHMARK(BM_EvaluateBaseline);

void BM_EvaluateAllScenarios(benchmark::State& state) {
  const stordep::StorageDesign design = cs::baseline();
  const std::vector<stordep::FailureScenario> scenarios = {
      cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()};
  for (auto _ : state) {
    for (const auto& scenario : scenarios) {
      benchmark::DoNotOptimize(stordep::evaluate(design, scenario));
    }
  }
}
BENCHMARK(BM_EvaluateAllScenarios);

void BM_UtilizationOnly(benchmark::State& state) {
  const stordep::StorageDesign design = cs::baseline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeUtilization(design));
  }
}
BENCHMARK(BM_UtilizationOnly);

void BM_RecoveryOnly(benchmark::State& state) {
  const stordep::StorageDesign design = cs::baseline();
  const auto scenario = cs::siteDisaster();
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeRecovery(design, scenario));
  }
}
BENCHMARK(BM_RecoveryOnly);

void BM_BuildBaselineDesign(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::baseline());
  }
}
BENCHMARK(BM_BuildBaselineDesign);

void BM_DesignSpaceSearch(benchmark::State& state) {
  const auto candidates = stordep::optimizer::enumerateDesignSpace();
  const auto scenarios = stordep::optimizer::caseStudyScenarios();
  const auto workload = cs::celloWorkload();
  const auto business = cs::requirements();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stordep::optimizer::searchDesignSpace(
        candidates, workload, business, scenarios));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_DesignSpaceSearch);

void BM_JsonRoundTrip(benchmark::State& state) {
  const std::string text = stordep::config::saveDesign(cs::baseline());
  for (auto _ : state) {
    benchmark::DoNotOptimize(stordep::config::loadDesign(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_JsonRoundTrip);

void BM_RpSimulation(benchmark::State& state) {
  const stordep::StorageDesign design = cs::baseline();
  stordep::sim::RpSimOptions options;
  options.horizon = stordep::days(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    stordep::sim::RpLifecycleSimulator sim(design, options);
    sim.run();
    benchmark::DoNotOptimize(sim.eventsProcessed());
  }
}
BENCHMARK(BM_RpSimulation)->Arg(100)->Arg(400);

void BM_ObservedDataLossQuery(benchmark::State& state) {
  const stordep::StorageDesign design = cs::baseline();
  stordep::sim::RpSimOptions options;
  options.horizon = stordep::days(200);
  stordep::sim::RpLifecycleSimulator sim(design, options);
  sim.run();
  const auto scenario = cs::arrayFailure();
  double t = sim.warmupTime();
  for (auto _ : state) {
    t += 3617.0;
    if (t >= sim.horizon()) t = sim.warmupTime();
    benchmark::DoNotOptimize(sim.observedDataLoss(scenario, t));
  }
}
BENCHMARK(BM_ObservedDataLossQuery);

}  // namespace

BENCHMARK_MAIN();
