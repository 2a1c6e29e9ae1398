// Cluster-view pin: node 0's whole /proc of a default 4-node cluster —
// the tree, every listing, every read, the error text of bad paths and
// four writes — rendered as text and compared byte for byte with
// tests/golden/procfs_cluster_view.txt.
//
// The golden fixes what a reader sees through the pseudo-filesystem, not
// how procfs stores it: any change in layout, status codes, messages or
// rendered values is a behaviour change. On a mismatch the fresh output is
// written to procfs_cluster_view.actual.txt in the working directory; to
// accept an intended change, copy that file over the golden.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dproc/core/cluster.hpp"

namespace dproc {
namespace {

/// Appends `text` one line at a time, each prefixed with "  | "; a text
/// without a final newline ends with a "  \\ no newline" marker.
void quote(std::string& out, const std::string& text) {
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find('\n', begin);
    out += "  | ";
    if (end == std::string::npos) {
      out += text.substr(begin);
      out += "\n  \\ no newline\n";
      return;
    }
    out.append(text, begin, end - begin);
    out += '\n';
    begin = end + 1;
  }
}

void record_read(std::string& out, const procfs::ProcFs& fs,
                 const std::string& path) {
  auto content = fs.read(path);
  if (!content) {
    out += "  read " + content.status().to_string() + "\n";
    return;
  }
  out += "  read OK\n";
  quote(out, content.value());
}

void record_list(std::string& out, const procfs::ProcFs& fs,
                 const std::string& path) {
  auto entries = fs.list(path);
  if (!entries) {
    out += "  list " + entries.status().to_string() + "\n";
    return;
  }
  out += "  list OK";
  for (const std::string& entry : entries.value()) out += " " + entry;
  out += '\n';
}

void record_kind(std::string& out, const procfs::ProcFs& fs,
                 const std::string& path) {
  out += "  exists " + std::to_string(fs.exists(path) ? 1 : 0) +
         " is_directory " + std::to_string(fs.is_directory(path) ? 1 : 0) +
         "\n";
}

/// Depth-first walk in listing order: directories list, files read.
void walk(std::string& out, const procfs::ProcFs& fs, const std::string& path) {
  const bool directory = fs.is_directory(path);
  out += (directory ? "dir " : "file ") + path + "\n";
  record_kind(out, fs, path);
  if (!directory) {
    record_read(out, fs, path);
    return;
  }
  record_list(out, fs, path);
  const std::vector<std::string> entries = fs.list(path).value();
  for (const std::string& entry : entries) {
    const bool sub = entry.back() == '/';
    walk(out, fs, path + "/" + (sub ? entry.substr(0, entry.size() - 1) : entry));
  }
}

std::string render_cluster_view() {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 4;
  config.seed = 7;
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(12.0));
  const procfs::ProcFs& fs = cluster.procfs(0);

  std::string out = "# tree\n";
  out += fs.tree();
  out += "# walk\n";
  walk(out, fs, "/proc");

  out += "# bad paths\n";
  for (const char* path :
       {"/proc/cluster/node1", "/proc/cluster/node1/cpu",
        "/proc/cluster/node1/cpu/nope", "/proc/cluster/node1/cpu/loadavg/x",
        "/proc/cluster/node9/cpu/loadavg"}) {
    out += std::string{"path "} + path + "\n";
    record_kind(out, fs, path);
    record_read(out, fs, path);
    record_list(out, fs, path);
  }

  out += "# writes\n";
  procfs::ProcFs& writable = cluster.procfs(0);
  for (const auto& [path, text] :
       {std::pair{"/proc/cluster/node1/cpu/loadavg", "1"},
        std::pair{"/proc/cluster/node1/status", "state live"},
        std::pair{"/proc/cluster/node1", "period 2"},
        std::pair{"/proc/cluster/node1/control", "period 2"}}) {
    out += std::string{"write "} + path + " '" + text + "' " +
           writable.write(path, text).to_string() + "\n";
  }
  engine.run_until(engine.now() + seconds(3.0));
  out += "# after retune\nfile /proc/cluster/node1/cpu/loadavg\n";
  record_read(out, fs, "/proc/cluster/node1/cpu/loadavg");
  return out;
}

TEST(ProcfsClusterView, MatchesGolden) {
  const std::string actual = render_cluster_view();
  std::ifstream golden_file{DPROC_GOLDEN_DIR "/procfs_cluster_view.txt",
                            std::ios::binary};
  std::ostringstream golden;
  golden << golden_file.rdbuf();
  if (actual != golden.str()) {
    std::ofstream{"procfs_cluster_view.actual.txt", std::ios::binary}
        << actual;
  }
  ASSERT_TRUE(golden_file.is_open()) << "missing golden file";
  EXPECT_TRUE(actual == golden.str())
      << "node 0's /proc view differs from tests/golden/"
         "procfs_cluster_view.txt; the fresh output is in "
         "procfs_cluster_view.actual.txt";
}

}  // namespace
}  // namespace dproc
