#include "eval/digest.h"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "kern/kern.h"
#include "util/hash.h"

namespace fs::eval {

namespace {

void hash_graph(util::Fnv1a& h, const graph::Graph& g) {
  h.u64(g.node_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v)
    for (graph::NodeId w : g.neighbors(v))
      if (v < w) h.u64(v).u64(w);
}

std::string hex(const util::Fnv1a& h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return buf;
}

}  // namespace

std::string result_digest(const core::FriendSeekerResult& result) {
  util::Fnv1a h;
  for (int p : result.test_predictions)
    h.u64(static_cast<std::uint32_t>(p));
  for (double s : result.test_scores) h.f64(s);
  hash_graph(h, result.final_graph);
  return hex(h);
}

std::string graph_digest(const graph::Graph& g) {
  util::Fnv1a h;
  hash_graph(h, g);
  return hex(h);
}

std::string toolchain_fingerprint() {
  std::ostringstream oss;
  oss << __VERSION__;
#ifdef __GLIBC__
  oss << " glibc-" << __GLIBC__ << "." << __GLIBC_MINOR__;
#endif
  oss << " kern-" << kern::path_name(kern::active_path());
  return oss.str();
}

std::string text_digest(const std::string& text) {
  return hex(util::Fnv1a().bytes(text));
}

}  // namespace fs::eval
