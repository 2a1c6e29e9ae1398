#include "dproc/procfs/procfs.hpp"

#include <sstream>

namespace dproc::procfs {

ProcFs::ProcFs() : root_(std::make_unique<Node>()) {}

Result<std::vector<std::string>> ProcFs::split_path(const std::string& path) {
  if (path.empty() || path.front() != '/') {
    return Status::invalid_argument("path must be absolute: '" + path + "'");
  }
  std::vector<std::string> components;
  std::string current;
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!current.empty()) {
        if (current == "." || current == "..") {
          return Status::invalid_argument("'.' and '..' are not supported");
        }
        components.push_back(std::move(current));
        current.clear();
      }
    } else {
      current += path[i];
    }
  }
  return components;
}

const ProcFs::Node& ProcFs::contents(const Node& node) {
  return node.shape != nullptr ? node.shape->root_ : node;
}

Status ProcFs::inside_bound(const std::string& path) {
  return {StatusCode::kPermissionDenied,
          "'" + path + "' is inside a bound directory"};
}

ProcFs::Found ProcFs::find(const std::string& path) const {
  auto components = split_path(path);
  if (!components) return {};
  Found found{root_.get(), 0};
  for (const std::string& component : components.value()) {
    if (found.node->shape != nullptr) found.key = found.node->key;
    const Node& dir = contents(*found.node);
    auto it = dir.children.find(component);
    if (it == dir.children.end()) return {};
    found.node = it->second.get();
  }
  return found;
}

ProcFs::Node* ProcFs::ensure_directories(
    Node& root, const std::vector<std::string>& components, std::size_t count,
    const std::string& path, Status& status) {
  Node* node = &root;
  for (std::size_t i = 0; i < count; ++i) {
    if (!node->directory) {
      status = Status::invalid_argument("'" + components[i - 1] +
                                        "' is a file, not a directory");
      return nullptr;
    }
    if (node->shape != nullptr) {
      status = inside_bound(path);
      return nullptr;
    }
    auto [it, created] = node->children.try_emplace(components[i]);
    if (created) it->second = std::make_unique<Node>();
    node = it->second.get();
  }
  if (!node->directory) {
    status = Status::invalid_argument("path component is a file");
    return nullptr;
  }
  return node;
}

Status ProcFs::put_file(Node& root, const std::string& path, KeyedRead read,
                        KeyedWrite write) {
  auto components = split_path(path);
  if (!components) return components.status();
  const auto& parts = components.value();
  if (parts.empty()) {
    return Status::invalid_argument("cannot register the root as a file");
  }
  Status status;
  Node* dir = ensure_directories(root, parts, parts.size() - 1, path, status);
  if (dir == nullptr) return status;
  if (dir->shape != nullptr) return inside_bound(path);

  auto [it, created] = dir->children.try_emplace(parts.back());
  if (!created && it->second->directory) {
    return Status::already_exists("'" + path + "' exists as a directory");
  }
  if (created) it->second = std::make_unique<Node>();
  Node& file = *it->second;
  file.directory = false;
  file.read = std::move(read);
  file.write = std::move(write);
  return Status::ok();
}

Status ProcFs::Shape::add_file(const std::string& relative_path,
                               KeyedRead read, KeyedWrite write) {
  return put_file(root_, "/" + relative_path, std::move(read),
                  std::move(write));
}

Status ProcFs::register_file(const std::string& path, ReadHandler read,
                             WriteHandler write) {
  KeyedRead keyed_read;
  if (read) keyed_read = [read = std::move(read)](Key) { return read(); };
  KeyedWrite keyed_write;
  if (write) {
    keyed_write = [write = std::move(write)](Key, const std::string& data) {
      return write(data);
    };
  }
  return put_file(*root_, path, std::move(keyed_read), std::move(keyed_write));
}

Status ProcFs::mkdir(const std::string& path) {
  auto components = split_path(path);
  if (!components) return components.status();
  Status status;
  if (ensure_directories(*root_, components.value(), components.value().size(),
                         path, status) == nullptr) {
    return status;
  }
  return Status::ok();
}

Status ProcFs::bind(const std::string& path, const Shape* shape, Key key) {
  if (shape == nullptr) return Status::invalid_argument("bind needs a shape");
  auto components = split_path(path);
  if (!components) return components.status();
  const auto& parts = components.value();
  if (parts.empty()) return Status::invalid_argument("cannot bind the root");
  Status status;
  Node* parent =
      ensure_directories(*root_, parts, parts.size() - 1, path, status);
  if (parent == nullptr) return status;
  if (parent->shape != nullptr) return inside_bound(path);

  auto [it, created] = parent->children.try_emplace(parts.back());
  if (created) it->second = std::make_unique<Node>();
  Node& dir = *it->second;
  if (!dir.directory) {
    return Status::already_exists("'" + path + "' exists as a file");
  }
  if (!dir.children.empty()) {
    return Status::already_exists("'" + path + "' is a directory with entries");
  }
  dir.shape = shape;
  dir.key = key;
  return Status::ok();
}

Status ProcFs::remove(const std::string& path) {
  auto components = split_path(path);
  if (!components) return components.status();
  const auto& parts = components.value();
  if (parts.empty()) return Status::invalid_argument("cannot remove the root");
  if (find(path).node == nullptr) {
    return Status::not_found("'" + path + "' does not exist");
  }
  Node* node = root_.get();
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (node->shape != nullptr) return inside_bound(path);
    node = node->children.find(parts[i])->second.get();
  }
  if (node->shape != nullptr) return inside_bound(path);
  node->children.erase(parts.back());
  return Status::ok();
}

Result<std::string> ProcFs::read(const std::string& path) const {
  const Found found = find(path);
  const Node* node = found.node;
  if (node == nullptr) return Status::not_found("'" + path + "' does not exist");
  if (node->directory) {
    return Status::invalid_argument("'" + path + "' is a directory");
  }
  if (!node->read) return std::string{};
  return node->read(found.key);
}

Status ProcFs::write(const std::string& path, const std::string& data) {
  const Found found = find(path);
  const Node* node = found.node;
  if (node == nullptr) return Status::not_found("'" + path + "' does not exist");
  if (node->directory) {
    return Status::invalid_argument("'" + path + "' is a directory");
  }
  if (!node->write) {
    return Status{StatusCode::kPermissionDenied, "'" + path + "' is read-only"};
  }
  return node->write(found.key, data);
}

Result<std::vector<std::string>> ProcFs::list(const std::string& path) const {
  const Node* node = find(path).node;
  if (node == nullptr) return Status::not_found("'" + path + "' does not exist");
  if (!node->directory) {
    return Status::invalid_argument("'" + path + "' is not a directory");
  }
  const Node& dir = contents(*node);
  std::vector<std::string> entries;
  entries.reserve(dir.children.size());
  for (const auto& [name, child] : dir.children) {
    entries.push_back(child->directory ? name + "/" : name);
  }
  return entries;
}

bool ProcFs::exists(const std::string& path) const {
  return find(path).node != nullptr;
}

bool ProcFs::is_directory(const std::string& path) const {
  const Node* node = find(path).node;
  return node != nullptr && node->directory;
}

void ProcFs::render(const Node& node, const std::string& name, int depth,
                    std::string& out) {
  if (depth >= 0) {
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += name;
    if (node.directory) out += '/';
    out += '\n';
  }
  for (const auto& [child_name, child] : contents(node).children) {
    render(*child, child_name, depth + 1, out);
  }
}

std::string ProcFs::tree() const {
  std::string out;
  render(*root_, "", -1, out);
  return out;
}

}  // namespace dproc::procfs
