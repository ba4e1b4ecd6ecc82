// Figure 7: overall response time and breakdown for point operations
// (sf = 1e-6) under increasing arrival rates — EMB- saturates early on root
// lock contention; BAS scales past 120 jobs/s.
#include "bench_util.h"
#include "throughput_common.h"

int main(int argc, char** argv) {
  authdb::bench::BenchRun run(argc, argv, "fig7_point_throughput");
  authdb::bench::Header(
      "Figure 7: EMB- versus BAS, point operations (sf = 1e-6)",
      "N = 1M, Upd% = 10, quad-core QS model; service times calibrated "
      "from the in-tree implementations (README substitution #3)");
  authdb::bench::RunThroughputFigure(
      "Response time vs arrival rate", /*cardinality=*/1,
      {10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}, {50, 120},
      run.smoke());
  return 0;
}
