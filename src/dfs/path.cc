#include "dfs/path.h"

namespace nws::dfs {

Result<std::string> normalize_path(const std::string& path) {
  if (path.empty() || path.front() != '/') {
    return Status::error(Errc::invalid, "dfs path must be absolute: '" + path + "'");
  }
  std::string out;
  out.reserve(path.size());
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    if (i == path.size()) break;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    const std::string component = path.substr(i, j - i);
    if (component == "." || component == "..") {
      return Status::error(Errc::invalid, "dfs path may not contain '.'/'..': '" + path + "'");
    }
    out += '/';
    out += component;
    i = j;
  }
  if (out.empty()) out.push_back('/');
  return out;
}

std::vector<std::string> split_path(const std::string& normalized) {
  std::vector<std::string> components;
  std::size_t i = 1;  // skip the leading '/'
  while (i < normalized.size()) {
    std::size_t j = normalized.find('/', i);
    if (j == std::string::npos) j = normalized.size();
    components.push_back(normalized.substr(i, j - i));
    i = j + 1;
  }
  return components;
}

Result<std::string> parent_path(const std::string& normalized) {
  if (normalized == "/") return Status::error(Errc::invalid, "the root has no parent");
  const std::size_t cut = normalized.rfind('/');
  return cut == 0 ? std::string("/") : normalized.substr(0, cut);
}

Result<std::string> base_name(const std::string& normalized) {
  if (normalized == "/") return Status::error(Errc::invalid, "the root has no name");
  return normalized.substr(normalized.rfind('/') + 1);
}

bool path_within(const std::string& candidate, const std::string& prefix) {
  if (candidate == prefix) return true;
  if (prefix == "/") return true;
  return candidate.size() > prefix.size() && candidate.compare(0, prefix.size(), prefix) == 0 &&
         candidate[prefix.size()] == '/';
}

}  // namespace nws::dfs
