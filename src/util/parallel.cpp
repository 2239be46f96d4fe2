#include "util/parallel.hpp"

#include <omp.h>
#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

namespace gsgcn::util {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  in >> s;
  return s;
}

/// sysfs reports sizes like "48K", "2048K" or "300M".
std::size_t parse_size(const std::string& s) {
  if (s.empty()) return 0;
  const std::size_t value = std::strtoull(s.c_str(), nullptr, 10);
  switch (s.back()) {
    case 'K': return value << 10;
    case 'M': return value << 20;
    case 'G': return value << 30;
    default: return value;
  }
}

CacheSizes read_cache_sizes() {
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  CacheSizes c;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = base + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    const std::string type = read_line(dir + "type");
    const std::size_t size = parse_size(read_line(dir + "size"));
    if (level == "1" && type == "Data") c.l1d = size;
    if (level == "2" && type != "Instruction") c.l2 = size;
    if (level == "3" && type != "Instruction") c.l3 = size;
  }
  return c;
}

}  // namespace

const CacheSizes& cache_sizes() {
  static const CacheSizes sizes = read_cache_sizes();
  return sizes;
}

std::size_t private_cache_bytes() {
  const std::size_t l2 = cache_sizes().l2;
  return l2 != 0 ? l2 : 256 * 1024;  // the paper's assumption
}

bool pin_current_thread_to_cpu(int cpu) {
#ifdef __linux__
  const int n = omp_get_num_procs();
  if (n <= 0 || cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % n, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

ScopedAffinity::ScopedAffinity() {
#ifdef __linux__
  static_assert(sizeof(cpu_set_t) <= sizeof(mask_),
                "ScopedAffinity mask buffer too small for cpu_set_t");
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
    std::memcpy(mask_, &set, sizeof(set));
    saved_ = true;
  }
#endif
}

bool ScopedAffinity::pin(int cpu) {
  if (!saved_) return false;  // nothing to restore from — do not pin
  pinned_ = pin_current_thread_to_cpu(cpu);
  return pinned_;
}

ScopedAffinity::~ScopedAffinity() {
#ifdef __linux__
  if (saved_ && pinned_) {
    cpu_set_t set;
    std::memcpy(&set, mask_, sizeof(set));
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
}

int max_threads() { return omp_get_max_threads(); }
int num_procs() { return omp_get_num_procs(); }
int resolve_threads(int threads) {
  return threads > 0 ? threads : omp_get_max_threads();
}

Range split_range(std::int64_t n, int p, int i) {
  const std::int64_t base = n / p;
  const std::int64_t rem = n % p;
  const std::int64_t begin = i * base + (i < rem ? i : rem);
  const std::int64_t len = base + (i < rem ? 1 : 0);
  return {begin, begin + len};
}

}  // namespace gsgcn::util
