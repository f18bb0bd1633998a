// End-to-end tests of the nfp_cli binary: byte-exact stdout goldens for the
// deterministic (simulated) subcommands, structural invariants for the live
// subcommands whose numbers depend on the host, and the malformed inputs
// every subcommand must reject with usage and exit 2.
//
// Goldens live in tests/cli/golden/: `<name>.out` is the exact stdout of a
// deterministic command; `<name>.keys` lists the JSON key paths (objects
// only, two levels deep) of a live command's --json output.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace nfp {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Runs `nfp_cli <args>` from the source root (so policy paths are the ones
// the goldens were captured with) under a timeout, so a command that
// wrongly keeps serving fails instead of hanging the suite.
CliRun run_cli(const std::string& args) {
  static int counter = 0;
  const std::string stem = ::testing::TempDir() + "nfp_cli_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter++);
  const std::string cmd = std::string("cd '") + NFP_SOURCE_DIR +
                          "' && timeout 60 '" + NFP_CLI_PATH + "' " + args +
                          " >'" + stem + ".out' 2>'" + stem + ".err'";
  const int status = std::system(cmd.c_str());
  CliRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                    : 128 + WTERMSIG(status);
  run.out = read_file(stem + ".out");
  run.err = read_file(stem + ".err");
  std::remove((stem + ".out").c_str());
  std::remove((stem + ".err").c_str());
  return run;
}

std::string golden_path(const std::string& name) {
  return std::string(NFP_SOURCE_DIR) + "/tests/cli/golden/" + name;
}

// Object key paths up to two levels deep ("report", "report.total", ...);
// arrays are not descended, so row counts and host-dependent sub-objects
// (the hardware-counter block) stay out of the set.
void collect_keys(const json::Value& v, const std::string& prefix, int depth,
                  std::set<std::string>* out) {
  if (!v.is_object() || depth == 0) return;
  for (const auto& [key, child] : v.members()) {
    out->insert(prefix + key);
    collect_keys(child, prefix + key + ".", depth - 1, out);
  }
}

// Parses every `{...}` line of `text` as one JSON document.
std::vector<json::Value> json_lines(const std::string& text) {
  std::vector<json::Value> docs;
  std::stringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '{') continue;
    auto doc = json::Value::parse(line);
    EXPECT_TRUE(doc.is_ok()) << line;
    if (doc) docs.push_back(std::move(doc.value()));
  }
  return docs;
}

void expect_golden_keys(const std::vector<json::Value>& docs,
                        const std::string& golden) {
  ASSERT_FALSE(docs.empty());
  std::set<std::string> want;
  std::stringstream lines(read_file(golden_path(golden)));
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) want.insert(line);
  }
  ASSERT_FALSE(want.empty()) << golden;
  for (const json::Value& doc : docs) {
    std::set<std::string> got;
    collect_keys(doc, "", 2, &got);
    EXPECT_EQ(got, want) << golden;
  }
}

double sum_members(const json::Value& obj) {
  double total = 0;
  for (const auto& [key, v] : obj.members()) total += v.as_number();
  return total;
}

u64 capture_u64(const std::string& text, const std::string& pattern) {
  std::smatch m;
  const std::regex re(pattern);
  if (!std::regex_search(text, m, re)) {
    ADD_FAILURE() << "no match for /" << pattern << "/ in:\n" << text;
    return 0;
  }
  return std::stoull(m[1].str());
}

// --- deterministic subcommands: byte-exact stdout -----------------------

struct GoldenCase {
  const char* name;
  const char* args;
  int exit_code;
};

// Keeps the test listing stable: gtest otherwise prints the raw bytes.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.args; }

class NfpCliGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(NfpCliGolden, StdoutMatchesGolden) {
  const GoldenCase& c = GetParam();
  const CliRun run = run_cli(c.args);
  EXPECT_EQ(run.exit_code, c.exit_code) << run.err;
  EXPECT_EQ(run.out, read_file(golden_path(std::string(c.name) + ".out")));
}

INSTANTIATE_TEST_SUITE_P(
    Deterministic, NfpCliGolden,
    ::testing::Values(
        GoldenCase{"compile_enterprise_edge",
                   "compile examples/policies/enterprise_edge.nfp", 0},
        GoldenCase{"tables_north_south",
                   "tables examples/policies/north_south.nfp", 0},
        GoldenCase{"dot_west_east", "dot examples/policies/west_east.nfp", 0},
        GoldenCase{"plan_north_south_2",
                   "plan examples/policies/north_south.nfp 2", 1},
        GoldenCase{"plan_north_south_8",
                   "plan examples/policies/north_south.nfp 8", 0},
        GoldenCase{"stats", "stats", 0},
        GoldenCase{"run_enterprise_edge_json",
                   "run examples/policies/enterprise_edge.nfp --json "
                   "--packets=200",
                   0},
        GoldenCase{"run_west_east_metrics",
                   "run examples/policies/west_east.nfp --metrics "
                   "--trace-every=1 --packets=200",
                   0},
        GoldenCase{"profile_north_south_json",
                   "profile examples/policies/north_south.nfp --json "
                   "--packets=300",
                   0},
        GoldenCase{"profile_north_south_onv",
                   "profile examples/policies/north_south.nfp --plane=onv "
                   "--packets=300",
                   0}),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      return std::string(param_info.param.name);
    });

// --- live subcommands: structure and accounting invariants --------------

TEST(NfpCliLive, EveryFrameIsDeliveredOrDroppedWithAReason) {
  const CliRun run = run_cli(
      "live examples/policies/west_east.nfp --shards=2 --packets=2000 "
      "--scenario=ddos");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const u64 frames = capture_u64(run.out, R"(live run: (\d+) frames)");
  const u64 delivered = capture_u64(run.out, R"(delivered=(\d+))");
  const u64 dropped = capture_u64(run.out, R"(dropped=(\d+))");
  EXPECT_EQ(frames, 2000u);
  EXPECT_EQ(delivered + dropped, frames);
  EXPECT_GT(dropped, 0u) << "the ddos scrubbing rule drops the attack share";

  // "drop reasons: a=N b=M" sums to the summary's dropped count.
  std::smatch line;
  const std::string& out = run.out;
  ASSERT_TRUE(std::regex_search(out, line, std::regex("drop reasons:(.*)")));
  const std::string reasons = line[1].str();
  u64 reason_total = 0;
  const std::regex count_re(R"(=(\d+))");
  for (auto it = std::sregex_iterator(reasons.begin(), reasons.end(),
                                      count_re);
       it != std::sregex_iterator(); ++it) {
    reason_total += std::stoull((*it)[1].str());
  }
  EXPECT_EQ(reason_total, dropped);
}

TEST(NfpCliLive, SyntheticRulesRunAccountsEveryFrame) {
  const CliRun run = run_cli(
      "live examples/policies/west_east.nfp --shards=2 --packets=500 "
      "--rules=100 --mode=rtc");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("preloaded 100 synthetic CT rules"),
            std::string::npos);
  EXPECT_NE(run.out.find("2 shards"), std::string::npos);
  EXPECT_EQ(capture_u64(run.out, R"(delivered=(\d+))") +
                capture_u64(run.out, R"(dropped=(\d+))"),
            500u);
  EXPECT_NE(run.out.find("drop reasons:"), std::string::npos);
}

TEST(NfpCliLive, ScalabilityJsonKeysAndAccounting) {
  const CliRun run =
      run_cli("scalability --shards=1,2 --packets=500 --json");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const auto docs = json_lines(run.out);
  ASSERT_EQ(docs.size(), 2u) << run.out;
  expect_golden_keys(docs, "scalability.keys");
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(docs[i].number_or("shards", 0), i + 1.0);
    const json::Value* total = docs[i].find("report")->find("total");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->number_or("delivered", 0) + total->number_or("dropped", 0),
              500.0);
  }
}

TEST(NfpCliLive, LatencyJsonKeysAndSamples) {
  const CliRun run = run_cli("latency --packets=500 --json");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const auto docs = json_lines(run.out);
  ASSERT_EQ(docs.size(), 1u) << run.out;
  expect_golden_keys(docs, "latency.keys");
  EXPECT_GT(docs[0].find("sequential")->number_or("sampled", 0), 0);
  EXPECT_GT(docs[0].find("parallel")->number_or("sampled", 0), 0);
}

TEST(NfpCliLive, FlowsJsonKeysAndDropTaxonomy) {
  const CliRun run = run_cli("flows --packets=2000 --flows=64 --json");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const auto docs = json_lines(run.out);
  ASSERT_EQ(docs.size(), 1u) << run.out;
  expect_golden_keys(docs, "flows.keys");
  const json::Value& doc = docs[0];
  EXPECT_EQ(doc.number_or("packets", 0) + doc.number_or("dropped", 0), 2000.0);
  EXPECT_EQ(sum_members(*doc.find("drops")), doc.number_or("dropped", -1));
}

TEST(NfpCliLive, FlowsTailDropAccountsEveryFrame) {
  const CliRun run =
      run_cli("flows --packets=5000 --flows=64 --pool=8 --json");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const auto docs = json_lines(run.out);
  ASSERT_EQ(docs.size(), 1u) << run.out;
  const json::Value& doc = docs[0];
  EXPECT_EQ(doc.number_or("packets", 0) + doc.number_or("dropped", 0), 5000.0);
  EXPECT_EQ(sum_members(*doc.find("drops")), doc.number_or("dropped", -1));
}

// --- malformed input: usage on stderr, exit 2, nothing run --------------

class NfpCliRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(NfpCliRejects, PrintsUsageAndExits2) {
  const CliRun run = run_cli(GetParam());
  EXPECT_EQ(run.exit_code, 2) << run.out << run.err;
  EXPECT_NE(run.err.find("usage:"), std::string::npos) << run.err;
  EXPECT_EQ(run.out, "");
}

INSTANTIATE_TEST_SUITE_P(
    MalformedInput, NfpCliRejects,
    ::testing::Values(
        "plan examples/policies/north_south.nfp abc",
        "plan examples/policies/north_south.nfp 12abc",
        "live examples/policies/west_east.nfp --serve=70000",
        "top --port=99999 --iterations=1",
        "top --port=-1 --iterations=1",
        "live examples/policies/west_east.nfp --packets=abc",
        "live examples/policies/west_east.nfp --packets=12abc",
        "live examples/policies/west_east.nfp --packets=",
        "live examples/policies/west_east.nfp --packets=0",
        "scalability --shards=1,x,2",
        "scalability --shards=1,,2",
        "latency --sample-every=18446744073709551616",
        "run examples/policies/west_east.nfp --rate=1e3",
        "profile examples/policies/west_east.nfp --plane=dpdk",
        "live examples/policies/west_east.nfp --mode=fast",
        "live examples/policies/west_east.nfp --scenario=nope",
        "flows --skew=pareto",
        "flows --json=1",
        "latency --bogus"));

}  // namespace
}  // namespace nfp
