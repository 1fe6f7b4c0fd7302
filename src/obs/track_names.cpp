#include "obs/track_names.h"

#include <cstdio>

namespace dlion::obs {

std::string id_str(std::size_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*zu", kIdPadWidth, id);
  return buf;
}

std::string worker_track(std::size_t id) { return "worker " + id_str(id); }

std::string link_track(std::size_t from, std::size_t to) {
  return "link " + id_str(from) + "->" + id_str(to);
}

}  // namespace dlion::obs
