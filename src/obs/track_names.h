// Canonical worker/link lane names for the tracer and metric
// labels, zero-padded so tracks sort numerically past 2-digit ids
// ("worker 0002" < "worker 0010"; lexicographic "worker 10" < "worker 2"
// was the old failure mode). Width 4 covers the 1,000+-worker target of
// ROADMAP item 1.
//
// Everything that parses lane names (critical_path's "worker %u" /
// "link %u->%u" scans, the tracer's sampling-id extraction) reads the
// first digit run, so it does not depend on the pad width.
#pragma once

#include <cstddef>
#include <string>

namespace dlion::obs {

/// Zero-pad width for numeric ids in lane names and label values.
inline constexpr int kIdPadWidth = 4;

/// "0007".
std::string id_str(std::size_t id);

/// "worker 0007" — worker swim lanes and the fabric's per-worker tracks.
std::string worker_track(std::size_t id);
/// "link 0000->0001" — network link lanes.
std::string link_track(std::size_t from, std::size_t to);

}  // namespace dlion::obs
