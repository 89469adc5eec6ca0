// The repo benchmark's program:
//
//   repobench --workload <venue_walk|mall_burst|venue_refresh> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a table of every metric and, as its last line, one JSON object:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when an answer check fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  repobench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0.0) {
    std::fprintf(stderr, "need --seconds > 0\n");
    return 2;
  }
  // One CPU for the generator, one for venue_refresh's feeder.
  repobench::ReserveCpus(2);
  int code = 2;
  if (args.workload == "venue_walk") {
    code = repobench::RunVenueWalk(args);
  } else if (args.workload == "mall_burst") {
    code = repobench::RunMallBurst(args);
  } else if (args.workload == "venue_refresh") {
    code = repobench::RunVenueRefresh(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  }
  return code;
}
