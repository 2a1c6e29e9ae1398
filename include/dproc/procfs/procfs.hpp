// In-memory /proc pseudo-filesystem.
//
// Files are handler pairs: reads render current state on demand (like a real
// procfs read_proc), writes parse user input and may fail with an error the
// caller sees (the errno + dmesg experience). dproc mounts its cluster tree
// under /proc/cluster/<node>/..., with one `control` file per node entry for
// parameters and filter deployment.
//
// Per-object directories share one Shape, the way a kernel procfs serves
// every /proc/<pid>/ from one entry table: a Shape is a tree of files whose
// handlers take a key, and bind() makes a directory whose contents are that
// shape, passing the directory's key to every handler. A bound directory
// costs one node however many files its shape holds, and a file added to
// the shape appears in every directory bound to it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dproc/util/status.hpp"

namespace dproc::procfs {

class ProcFs {
 public:
  using ReadHandler = std::function<std::string()>;
  using WriteHandler = std::function<Status(const std::string&)>;
  /// What a bound directory passes to its shape's handlers.
  using Key = std::uint64_t;
  using KeyedRead = std::function<std::string(Key)>;
  using KeyedWrite = std::function<Status(Key, const std::string&)>;
  class Shape;

 private:
  /// One entry: a file (handlers) or a directory (children, or the shape it
  /// is bound to). Stored files ignore the key; shape files get the key of
  /// the bound directory they were reached through.
  struct Node {
    std::map<std::string, std::unique_ptr<Node>> children;
    KeyedRead read;
    KeyedWrite write;
    const Shape* shape = nullptr;
    Key key = 0;
    bool directory = true;
  };

 public:
  /// A tree of keyed files shared by every directory bound to it. It must
  /// outlive those bindings; files may be added after binding.
  class Shape {
   public:
    Shape() = default;
    Shape(const Shape&) = delete;
    Shape& operator=(const Shape&) = delete;

    /// Adds (or replaces) a file at `relative_path` ("cpu/loadavg");
    /// intermediate directories are created. A null `write` makes the file
    /// read-only.
    Status add_file(const std::string& relative_path, KeyedRead read,
                    KeyedWrite write = {});

   private:
    friend class ProcFs;
    Node root_;
  };

  ProcFs();
  ProcFs(const ProcFs&) = delete;
  ProcFs& operator=(const ProcFs&) = delete;

  /// Registers a pseudo-file; intermediate directories are created. A null
  /// `write` makes the file read-only (writes return PERMISSION_DENIED).
  Status register_file(const std::string& path, ReadHandler read,
                       WriteHandler write = {});

  /// Creates a directory (and parents). Idempotent.
  Status mkdir(const std::string& path);

  /// Makes `path` (and its parents) a directory whose contents are `shape`,
  /// read and written with `key`. Rebinding a bound directory replaces its
  /// shape and key; an existing file or a directory with entries is
  /// ALREADY_EXISTS. Nothing can be registered, created or removed inside
  /// a bound directory (PERMISSION_DENIED); remove the directory itself.
  Status bind(const std::string& path, const Shape* shape, Key key);

  /// Removes a file or directory subtree.
  Status remove(const std::string& path);

  [[nodiscard]] Result<std::string> read(const std::string& path) const;
  Status write(const std::string& path, const std::string& data);

  /// Lists directory entries in name order; directories get a '/' suffix.
  [[nodiscard]] Result<std::vector<std::string>> list(
      const std::string& path) const;

  [[nodiscard]] bool exists(const std::string& path) const;
  [[nodiscard]] bool is_directory(const std::string& path) const;

  /// Renders the whole tree as an indented listing (Figure 1 style).
  [[nodiscard]] std::string tree() const;

 private:
  /// A resolved path: the node (null when missing) and the key of the
  /// bound directory it was reached through (0 outside any).
  struct Found {
    const Node* node = nullptr;
    Key key = 0;
  };

  static Result<std::vector<std::string>> split_path(const std::string& path);
  /// The node whose children a directory lists: its shape's root if bound.
  static const Node& contents(const Node& node);
  static Status inside_bound(const std::string& path);
  [[nodiscard]] Found find(const std::string& path) const;
  static Node* ensure_directories(Node& root,
                                  const std::vector<std::string>& components,
                                  std::size_t count, const std::string& path,
                                  Status& status);
  static Status put_file(Node& root, const std::string& path,
                         KeyedRead read, KeyedWrite write);
  static void render(const Node& node, const std::string& name, int depth,
                     std::string& out);

  std::unique_ptr<Node> root_;
};

}  // namespace dproc::procfs
