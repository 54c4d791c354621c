#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), the one clock every record and
/// span of the benchmark uses.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `--key=value` flags after the subcommand. Unknown keys are the caller's
/// business; a missing required key exits with status 2.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        std::fprintf(stderr, "perfbench_tool: bad argument '%s'\n",
                     arg.c_str());
        std::exit(2);
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }

  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "perfbench_tool: missing --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  std::string Str(const std::string& key, const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  double Num(const std::string& key) const { return std::stod(Str(key)); }
  double Num(const std::string& key, double def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// One line of a request stream file: "<code>\t<statement>". Codes:
/// w window, d disk, k knn, s skyline, v divknn, i insert, x delete.
struct StreamItem {
  char code = 'w';
  std::string statement;
};

inline bool IsUpdateCode(char code) { return code == 'i' || code == 'x'; }

/// Reads a stream file; exits with status 1 when it cannot be read.
inline std::vector<StreamItem> ReadStream(const std::string& path) {
  std::vector<StreamItem> items;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_tool: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  char* line = nullptr;
  std::size_t cap = 0;
  long len = 0;
  while ((len = getline(&line, &cap, f)) > 0) {
    std::string_view s(line, static_cast<std::size_t>(len));
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
      s.remove_suffix(1);
    }
    if (s.size() < 3 || s[1] != '\t') continue;
    items.push_back(StreamItem{s[0], std::string(s.substr(2))});
  }
  std::free(line);
  std::fclose(f);
  return items;
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
