#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dproc/procfs/procfs.hpp"

namespace dproc::procfs {
namespace {

class ProcFsTest : public ::testing::Test {
 protected:
  ProcFs fs;
};

TEST_F(ProcFsTest, RegisterAndReadFile) {
  ASSERT_TRUE(fs.register_file("/proc/loadavg", [] { return "0.42\n"; }).is_ok());
  auto content = fs.read("/proc/loadavg");
  ASSERT_TRUE(content.is_ok());
  EXPECT_EQ(content.value(), "0.42\n");
}

TEST_F(ProcFsTest, IntermediateDirectoriesCreated) {
  ASSERT_TRUE(
      fs.register_file("/proc/cluster/alan/cpu/loadavg", [] { return "1\n"; })
          .is_ok());
  EXPECT_TRUE(fs.is_directory("/proc/cluster/alan/cpu"));
  EXPECT_TRUE(fs.is_directory("/proc/cluster"));
}

TEST_F(ProcFsTest, ReadReflectsLiveState) {
  int value = 0;
  ASSERT_TRUE(fs.register_file("/proc/value", [&] {
                  return std::to_string(value);
                }).is_ok());
  value = 7;
  EXPECT_EQ(fs.read("/proc/value").value(), "7");
  value = 9;
  EXPECT_EQ(fs.read("/proc/value").value(), "9");
}

TEST_F(ProcFsTest, WriteInvokesHandler) {
  std::string written;
  ASSERT_TRUE(fs.register_file(
                    "/proc/cluster/alan/control", [] { return ""; },
                    [&](const std::string& data) {
                      written = data;
                      return Status::ok();
                    })
                  .is_ok());
  ASSERT_TRUE(fs.write("/proc/cluster/alan/control", "period 2").is_ok());
  EXPECT_EQ(written, "period 2");
}

TEST_F(ProcFsTest, WriteHandlerErrorsPropagate) {
  ASSERT_TRUE(fs.register_file(
                    "/proc/ctl", [] { return ""; },
                    [](const std::string&) {
                      return Status::invalid_argument("bad command");
                    })
                  .is_ok());
  const Status status = fs.write("/proc/ctl", "x");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ProcFsTest, WriteToReadOnlyFileDenied) {
  ASSERT_TRUE(fs.register_file("/proc/ro", [] { return "x"; }).is_ok());
  EXPECT_EQ(fs.write("/proc/ro", "y").code(), StatusCode::kPermissionDenied);
}

TEST_F(ProcFsTest, MissingPathsReported) {
  EXPECT_EQ(fs.read("/proc/nothing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.write("/proc/nothing", "x").code(), StatusCode::kNotFound);
  EXPECT_FALSE(fs.exists("/proc/nothing"));
}

TEST_F(ProcFsTest, ReadingDirectoryIsError) {
  ASSERT_TRUE(fs.mkdir("/proc/cluster").is_ok());
  EXPECT_EQ(fs.read("/proc/cluster").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ProcFsTest, ListSortsAndMarksDirectories) {
  ASSERT_TRUE(fs.register_file("/proc/zeta", [] { return ""; }).is_ok());
  ASSERT_TRUE(fs.mkdir("/proc/alpha").is_ok());
  auto entries = fs.list("/proc");
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries.value(), (std::vector<std::string>{"alpha/", "zeta"}));
}

TEST_F(ProcFsTest, ListFileIsError) {
  ASSERT_TRUE(fs.register_file("/proc/x", [] { return ""; }).is_ok());
  EXPECT_FALSE(fs.list("/proc/x").is_ok());
}

TEST_F(ProcFsTest, RemoveSubtree) {
  ASSERT_TRUE(fs.register_file("/proc/cluster/alan/cpu/loadavg",
                               [] { return ""; }).is_ok());
  ASSERT_TRUE(fs.remove("/proc/cluster/alan").is_ok());
  EXPECT_FALSE(fs.exists("/proc/cluster/alan/cpu/loadavg"));
  EXPECT_TRUE(fs.exists("/proc/cluster"));
  EXPECT_EQ(fs.remove("/proc/cluster/alan").code(), StatusCode::kNotFound);
}

TEST_F(ProcFsTest, RelativePathsRejected) {
  EXPECT_FALSE(fs.register_file("proc/x", [] { return ""; }).is_ok());
  EXPECT_FALSE(fs.read("relative").is_ok());
}

TEST_F(ProcFsTest, DotComponentsRejected) {
  EXPECT_FALSE(fs.register_file("/proc/../etc/passwd", [] { return ""; }).is_ok());
  EXPECT_FALSE(fs.read("/proc/./x").is_ok());
}

TEST_F(ProcFsTest, FileOverDirectoryRejected) {
  ASSERT_TRUE(fs.mkdir("/proc/cluster").is_ok());
  EXPECT_EQ(fs.register_file("/proc/cluster", [] { return ""; }).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ProcFsTest, ReRegisterReplacesHandlers) {
  ASSERT_TRUE(fs.register_file("/proc/x", [] { return "a"; }).is_ok());
  ASSERT_TRUE(fs.register_file("/proc/x", [] { return "b"; }).is_ok());
  EXPECT_EQ(fs.read("/proc/x").value(), "b");
}

TEST_F(ProcFsTest, TreeRendersHierarchy) {
  ASSERT_TRUE(fs.register_file("/proc/cluster/alan/cpu/loadavg",
                               [] { return ""; }).is_ok());
  const std::string tree = fs.tree();
  EXPECT_NE(tree.find("cluster/"), std::string::npos);
  EXPECT_NE(tree.find("alan/"), std::string::npos);
  EXPECT_NE(tree.find("loadavg"), std::string::npos);
}

TEST_F(ProcFsTest, DuplicateSlashesTolerated) {
  ASSERT_TRUE(fs.register_file("//proc//x", [] { return "v"; }).is_ok());
  EXPECT_EQ(fs.read("/proc/x").value(), "v");
}

TEST_F(ProcFsTest, NullReadHandlerYieldsEmpty) {
  ASSERT_TRUE(fs.register_file("/proc/empty", {}).is_ok());
  EXPECT_EQ(fs.read("/proc/empty").value(), "");
}

// Two directories bound to one shape under keys 1 and 2: each file's
// handler gets the key of the directory it was reached through.
class ProcFsShapeTest : public ProcFsTest {
 protected:
  ProcFsShapeTest() {
    EXPECT_TRUE(shape
                    .add_file("cpu/loadavg",
                              [](ProcFs::Key key) {
                                return "load " + std::to_string(key) + "\n";
                              })
                    .is_ok());
    EXPECT_TRUE(shape
                    .add_file(
                        "control", [](ProcFs::Key) { return "# help\n"; },
                        [this](ProcFs::Key key, const std::string& text) {
                          writes.emplace_back(key, text);
                          return text == "bad"
                                     ? Status::invalid_argument("bad command")
                                     : Status::ok();
                        })
                    .is_ok());
    EXPECT_TRUE(fs.bind("/proc/cluster/alan", &shape, 1).is_ok());
    EXPECT_TRUE(fs.bind("/proc/cluster/maui", &shape, 2).is_ok());
  }

  ProcFs::Shape shape;
  std::vector<std::pair<ProcFs::Key, std::string>> writes;
};

TEST_F(ProcFsShapeTest, BoundDirectoriesReadTheirOwnKey) {
  EXPECT_EQ(fs.read("/proc/cluster/alan/cpu/loadavg").value(), "load 1\n");
  EXPECT_EQ(fs.read("/proc/cluster/maui/cpu/loadavg").value(), "load 2\n");
  EXPECT_TRUE(fs.is_directory("/proc/cluster/alan"));
  EXPECT_TRUE(fs.is_directory("/proc/cluster/maui/cpu"));
  EXPECT_FALSE(fs.is_directory("/proc/cluster/maui/control"));
  EXPECT_TRUE(fs.exists("/proc/cluster/maui/control"));
  EXPECT_EQ(fs.list("/proc/cluster").value(),
            (std::vector<std::string>{"alan/", "maui/"}));
  EXPECT_EQ(fs.list("/proc/cluster/alan").value(),
            (std::vector<std::string>{"control", "cpu/"}));
  EXPECT_EQ(fs.list("/proc/cluster/maui/cpu").value(),
            (std::vector<std::string>{"loadavg"}));
}

TEST_F(ProcFsShapeTest, FileAddedAfterBindShowsUpEverywhere) {
  ASSERT_TRUE(shape
                  .add_file("mem/freemem",
                            [](ProcFs::Key key) {
                              return std::to_string(key * 100);
                            })
                  .is_ok());
  EXPECT_EQ(fs.read("/proc/cluster/alan/mem/freemem").value(), "100");
  EXPECT_EQ(fs.read("/proc/cluster/maui/mem/freemem").value(), "200");
  EXPECT_EQ(fs.list("/proc/cluster/maui").value(),
            (std::vector<std::string>{"control", "cpu/", "mem/"}));
  const std::string tree = fs.tree();
  EXPECT_NE(tree.find("    alan/\n      control\n      cpu/\n        loadavg\n"
                      "      mem/\n        freemem\n    maui/\n"),
            std::string::npos)
      << tree;
}

TEST_F(ProcFsShapeTest, WritesReachTheKeyedHandler) {
  ASSERT_TRUE(fs.write("/proc/cluster/maui/control", "period 2").is_ok());
  ASSERT_TRUE(fs.write("/proc/cluster/alan/control", "period 3").is_ok());
  EXPECT_EQ(fs.write("/proc/cluster/alan/control", "bad").code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(writes.size(), 3u);
  EXPECT_EQ(writes[0], (std::pair<ProcFs::Key, std::string>{2, "period 2"}));
  EXPECT_EQ(writes[1], (std::pair<ProcFs::Key, std::string>{1, "period 3"}));
  EXPECT_EQ(writes[2].first, 1u);
}

TEST_F(ProcFsShapeTest, ErrorsCarryTheStoredFileTexts) {
  const Status read_only = fs.write("/proc/cluster/alan/cpu/loadavg", "1");
  EXPECT_EQ(read_only.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(read_only.message(),
            "'/proc/cluster/alan/cpu/loadavg' is read-only");
  const Status dir_write = fs.write("/proc/cluster/alan/cpu", "1");
  EXPECT_EQ(dir_write.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dir_write.message(), "'/proc/cluster/alan/cpu' is a directory");
  const Status dir_read = fs.read("/proc/cluster/maui").status();
  EXPECT_EQ(dir_read.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dir_read.message(), "'/proc/cluster/maui' is a directory");
  const Status missing = fs.read("/proc/cluster/alan/cpu/nope").status();
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.message(), "'/proc/cluster/alan/cpu/nope' does not exist");
  const Status below_file = fs.read("/proc/cluster/alan/control/x").status();
  EXPECT_EQ(below_file.code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.list("/proc/cluster/alan/control").status().message(),
            "'/proc/cluster/alan/control' is not a directory");
  EXPECT_FALSE(fs.exists("/proc/cluster/etna/control"));
}

TEST_F(ProcFsShapeTest, RemoveDropsOnlyTheBoundDirectory) {
  ASSERT_TRUE(fs.remove("/proc/cluster/alan").is_ok());
  EXPECT_FALSE(fs.exists("/proc/cluster/alan"));
  EXPECT_FALSE(fs.exists("/proc/cluster/alan/cpu/loadavg"));
  EXPECT_EQ(fs.read("/proc/cluster/maui/cpu/loadavg").value(), "load 2\n");
  EXPECT_EQ(fs.remove("/proc/cluster/alan").code(), StatusCode::kNotFound);
  // Rebinding after a remove brings the directory back.
  ASSERT_TRUE(fs.bind("/proc/cluster/alan", &shape, 7).is_ok());
  EXPECT_EQ(fs.read("/proc/cluster/alan/cpu/loadavg").value(), "load 7\n");
}

TEST_F(ProcFsShapeTest, NothingIsCreatedOrRemovedInsideABoundDirectory) {
  const std::string before = fs.tree();
  for (const Status& status :
       {fs.register_file("/proc/cluster/alan/extra", [] { return ""; }),
        fs.register_file("/proc/cluster/alan/cpu/loadavg", [] { return ""; }),
        fs.register_file("/proc/cluster/alan/new/file", [] { return ""; }),
        fs.mkdir("/proc/cluster/alan/cpu"), fs.mkdir("/proc/cluster/alan/x/y"),
        fs.bind("/proc/cluster/alan/sub", &shape, 3),
        fs.remove("/proc/cluster/alan/cpu/loadavg"),
        fs.remove("/proc/cluster/alan/cpu")}) {
    EXPECT_EQ(status.code(), StatusCode::kPermissionDenied)
        << status.to_string();
  }
  EXPECT_EQ(fs.remove("/proc/cluster/alan/cpu/nope").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fs.tree(), before);
  EXPECT_EQ(fs.read("/proc/cluster/maui/cpu/loadavg").value(), "load 2\n");
  // The bound directory itself is already a directory: mkdir is a no-op.
  EXPECT_TRUE(fs.mkdir("/proc/cluster/alan").is_ok());
  EXPECT_EQ(fs.register_file("/proc/cluster/alan", [] { return ""; }).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ProcFsShapeTest, BindRefusesFilesAndPopulatedDirectories) {
  ASSERT_TRUE(fs.register_file("/proc/cluster/file", [] { return ""; }).is_ok());
  EXPECT_EQ(fs.bind("/proc/cluster/file", &shape, 3).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fs.bind("/proc/cluster", &shape, 3).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fs.bind("/proc/cluster/etna", nullptr, 3).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fs.bind("/", &shape, 3).code(), StatusCode::kInvalidArgument);
  // An empty directory may be bound; a bound one may be rebound.
  ASSERT_TRUE(fs.mkdir("/proc/cluster/etna").is_ok());
  ASSERT_TRUE(fs.bind("/proc/cluster/etna", &shape, 3).is_ok());
  ASSERT_TRUE(fs.bind("/proc/cluster/etna", &shape, 4).is_ok());
  EXPECT_EQ(fs.read("/proc/cluster/etna/cpu/loadavg").value(), "load 4\n");
}

}  // namespace
}  // namespace dproc::procfs
