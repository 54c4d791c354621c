// perfbench_tool — the compiled half of the repository benchmark
// (perfbench/run.py drives it; see that file for the workloads).
//
//   perfbench_tool gen    --workload=W --data-seed=D --seed=S --n=N
//                         --requests=M --conns=C --out=DIR [--prep=K]
//                         [--trace=K] [--live=K]
//   perfbench_tool load   --mode=run|prep|unloaded --port=P --stream=F
//                         --out=F [phase options, see loadgen.cc]
//   perfbench_tool check  --snapshot=F --stream=F --samples=F
//                         [--base-below=N]
//   perfbench_tool digest --csv=F --extra=F
//   perfbench_tool trace  --replay=read|live --stream=F --spans=F
//                         (read: --snapshot=F --counts=F --count=N;
//                         live: --wal-dir=D --seconds=T)
//
// Exit status: 0 ok, 1 failure, 2 usage.

#include <cstdio>
#include <string>

#include "util.h"

namespace perfbench {
int RunGen(const Flags& flags);
int RunLoad(const Flags& flags);
int RunCheck(const Flags& flags);
int RunDigest(const Flags& flags);
int RunTrace(const Flags& flags);
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool gen|load|check|digest|trace "
                 "--key=value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const perfbench::Flags flags(argc, argv, 2);
  if (cmd == "gen") return perfbench::RunGen(flags);
  if (cmd == "load") return perfbench::RunLoad(flags);
  if (cmd == "check") return perfbench::RunCheck(flags);
  if (cmd == "digest") return perfbench::RunDigest(flags);
  if (cmd == "trace") return perfbench::RunTrace(flags);
  std::fprintf(stderr, "perfbench_tool: unknown command '%s'\n", cmd.c_str());
  return 2;
}
