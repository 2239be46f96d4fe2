// gsgcn_bench — one workload of the end-to-end benchmark in one process.
//
//   gsgcn_bench --workload train-wide --seed 1 --seconds 10 --mode e2e
//               --workdir build/benchmark/run [--smoke] [--max-rps]
//
// Prints the result document (metrics with units, correctness checks,
// attempted/failed counts) as one JSON object on the last stdout line.
// benchmark/run.py builds this binary, runs every (workload, mode) pair in
// its own process and aggregates the documents.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

bool parse(int argc, char** argv, bench::Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::stoull(next());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (a == "--mode") {
      opt.mode = next();
    } else if (a == "--workdir") {
      opt.workdir = next();
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--max-rps") {
      opt.max_rps = true;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return false;
    }
  }
  if (opt.workload.empty() || opt.workdir.empty() || !(opt.seconds > 0) ||
      (opt.mode != "e2e" && opt.mode != "reference" && opt.mode != "traced")) {
    std::cerr << "usage: gsgcn_bench --workload W --seed N --seconds S "
                 "--mode e2e|reference|traced --workdir DIR [--smoke] "
                 "[--max-rps]\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bench::Options opt;
    if (!parse(argc, argv, opt)) return 2;
    bench::Report report;
    int rc = 0;
    if (opt.workload.rfind("train-", 0) == 0) {
      rc = bench::run_train(opt, report);
    } else if (opt.workload == "serve-open") {
      rc = bench::run_serve(opt, report);
    } else {
      std::cerr << "unknown workload: " << opt.workload << "\n";
      return 2;
    }
    if (rc != 0) return rc;
    report.metric("peak_rss_mb", bench::peak_rss_mb(), "MB");
    std::cout << report.to_json(opt) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "gsgcn_bench: " << e.what() << "\n";
    return 1;
  }
}
