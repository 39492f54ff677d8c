// `p2prep_cli detect` at the paper's Overstock scale: node ids up to
// 99,999 must run every detector method on a sparse matrix. A dense
// matrix would need 100,000^2 cells (160 GB) and abort in std::bad_alloc.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace p2prep {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;
};

CliRun run_cli(const std::string& args) {
  CliRun run;
  const std::string command =
      std::string(P2PREP_CLI_PATH) + ' ' + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) run.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(CliDetect, PaperScaleIdsRunEveryMethod) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("p2prep_cli_detect_" + std::to_string(::getpid()) + ".csv");
  {
    std::ofstream out(path);
    out << "rater,ratee,score,time\n"
           "0,99999,1,0\n"
           "99999,0,1,1\n"
           "1,2,-1,2\n";
  }
  const std::string common =
      "detect --in " + path.string() + " --tn 1 --tr 0 --method ";
  for (const char* method : {"basic", "optimized"}) {
    const CliRun run = run_cli(common + method);
    EXPECT_EQ(run.exit_code, 0) << method << ":\n" << run.output;
    EXPECT_NE(run.output.find("pair(0, 99999)"), std::string::npos)
        << method << ":\n" << run.output;
  }
  const CliRun group = run_cli(common + "group");
  EXPECT_EQ(group.exit_code, 0) << group.output;
  EXPECT_NE(group.output.find("ring(0, 99999)"), std::string::npos)
      << group.output;
  const CliRun ring = run_cli(common + "ring");
  EXPECT_EQ(ring.exit_code, 0) << ring.output;
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace p2prep
