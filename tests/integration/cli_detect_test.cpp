// `p2prep_cli detect` at the paper's Overstock scale: node ids up to
// 99,999 must run every detector method in MBs. A matrix storing all n
// cells of every row would need 100,000^2 cells (160 GB).
// Also the CLI's flag tables: each subcommand accepts exactly the flags
// its usage lists.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

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

// The paper's model has no self-rating channel, and the matrix takes
// none: `detect` and `calibrate` drop a self-rating row, so a file with
// one reads exactly as the same file without it.
TEST(CliDetect, SelfRatingRowsAreDropped) {
  const std::string rows =
      "rater,ratee,score,time\n"
      "0,1,1,0\n1,0,1,1\n0,1,1,2\n1,0,1,3\n2,1,-1,4\n3,0,-1,5\n";
  const auto write = [](const std::string& name, const std::string& text) {
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("p2prep_cli_" + name + std::to_string(::getpid()) + ".csv");
    std::ofstream(path) << text;
    return path;
  };
  const std::filesystem::path clean = write("clean_", rows);
  const std::filesystem::path with_self =
      write("self_", rows + "1,1,1,6\n0,0,-1,7\n3,3,1,8\n");
  for (const std::string command :
       {"detect --tn 2 --tr 0 --tb 0.5 --method basic",
        "detect --tn 2 --tr 0 --tb 0.5 --method optimized",
        "calibrate"}) {
    const CliRun want = run_cli(command + " --in " + clean.string());
    const CliRun got = run_cli(command + " --in " + with_self.string());
    EXPECT_EQ(want.exit_code, 0) << command << ":\n" << want.output;
    EXPECT_EQ(got.exit_code, 0) << command << ":\n" << got.output;
    EXPECT_EQ(got.output, want.output) << command;
  }
  const CliRun flagged =
      run_cli("detect --tn 2 --tr 0 --tb 0.5 --in " + with_self.string());
  EXPECT_NE(flagged.output.find("pair(0, 1)"), std::string::npos)
      << flagged.output;
  std::filesystem::remove(clean);
  std::filesystem::remove(with_self);
}

// A misspelled flag used to be ignored: `serve-replay --detecter ring`
// silently ran the default detector. Now it exits 2 naming the flag and
// the subcommand, and so does a flag another subcommand owns.
TEST(CliFlags, UnknownFlagIsRefused) {
  const CliRun misspelled =
      run_cli("serve-replay --in /nonexistent.csv --detecter ring");
  EXPECT_EQ(misspelled.exit_code, 2) << misspelled.output;
  EXPECT_NE(misspelled.output.find("unknown flag --detecter for serve-replay"),
            std::string::npos)
      << misspelled.output;
  const CliRun foreign = run_cli("detect --in /nonexistent.csv --report");
  EXPECT_EQ(foreign.exit_code, 2) << foreign.output;
  EXPECT_NE(foreign.output.find("unknown flag --report for detect"),
            std::string::npos)
      << foreign.output;
  const CliRun retired =
      run_cli("detect --in /nonexistent.csv --matrix-backend dense");
  EXPECT_EQ(retired.exit_code, 2) << retired.output;
}

// An unknown trace kind exits 2 without touching --out: the file keeps
// every byte it had.
TEST(CliFlags, UnknownTraceKindLeavesOutFileAlone) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("p2prep_cli_trace_" + std::to_string(::getpid()) + ".csv");
  const std::string bytes = "rater,ratee,score,time\n0,1,1,0\n";
  { std::ofstream(path, std::ios::binary) << bytes; }
  const CliRun run = run_cli("trace bogus --out " + path.string());
  EXPECT_EQ(run.exit_code, 2) << run.output;
  std::ifstream in(path, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, bytes);
  std::filesystem::remove(path);
}

/// Each subcommand's flags as its usage lists them, in order; a boolean
/// flag maps to an empty placeholder.
std::map<std::string, std::vector<std::pair<std::string, std::string>>>
usage_tables() {
  const CliRun run = run_cli("");
  EXPECT_EQ(run.exit_code, 2);
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      tables;
  const std::regex command(R"(^  ([a-z-]+))");
  const std::regex flag(R"(\[--([a-z-]+)(?: ([^\]]+))?\])");
  std::istringstream lines(run.output);
  std::string line;
  std::string current;
  while (std::getline(lines, line)) {
    std::smatch m;
    if (std::regex_search(line, m, command)) current = m[1];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), flag);
         it != std::sregex_iterator(); ++it)
      tables[current].emplace_back((*it)[1], (*it)[2]);
  }
  return tables;
}

// Every subcommand runs with every flag its usage lists, each given a
// value that makes the command stop early (a missing input file, an
// unparsable ring, a refused connection to a closed loopback port):
// none is refused as unknown, and none is read without being listed.
TEST(CliFlags, EveryListedFlagIsAccepted) {
  const auto tables = usage_tables();
  for (const char* name :
       {"trace", "analyze", "detect", "calibrate", "simulate", "serve-replay",
        "serve", "rate", "query", "metrics", "resize", "manager"}) {
    ASSERT_TRUE(tables.contains(name)) << name;
    EXPECT_FALSE(tables.at(name).empty()) << name;
  }
  const std::string out =
      (std::filesystem::temp_directory_path() /
       ("p2prep_cli_flags_" + std::to_string(::getpid()) + ".csv"))
          .string();
  const std::map<std::string, std::string> values{
      {"in", "/nonexistent/p2prep.csv"},
      {"out", out},
      {"engine", "none"},  // not an engine: simulate stops at once
      {"ring", "not-a-ring"},
      {"cluster-ring", "not-a-ring"},
      {"host", "127.0.0.1"},
      {"port", "1"},
      {"listen", "0"},
      {"wal-dir", "/nonexistent/wal"},
      {"data-dir", "/nonexistent/data"},
      {"scope", "global"},
      {"detector", "optimized"},
      {"method", "optimized"}};
  for (const auto& [name, table] : tables) {
    std::string args = name + (name == "trace" ? " none" : "");
    for (const auto& [flag, placeholder] : table) {
      args += " --" + flag;
      if (placeholder.empty()) continue;
      const auto it = values.find(flag);
      args += " " + (it != values.end() ? it->second : std::string("1"));
    }
    const CliRun run = run_cli(args);
    EXPECT_GE(run.exit_code, 0) << args << ":\n" << run.output;
    EXPECT_EQ(run.output.find("unknown flag"), std::string::npos)
        << args << ":\n" << run.output;
    EXPECT_EQ(run.output.find("not listed"), std::string::npos)
        << args << ":\n" << run.output;
  }
  std::filesystem::remove(out);
}

}  // namespace
}  // namespace p2prep
