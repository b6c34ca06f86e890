// Process resource sampling: RSS and CPU time, read on demand or sampled
// on a background thread into a fixed ring.
//
// sample_resources() reads the current resident set from
// /proc/self/statm (resident pages x page size). Where that file is
// unavailable it falls back to getrusage(RUSAGE_SELF) ru_maxrss — note
// the fallback reports the *peak* RSS, not the current one (documented in
// the sample's `rss_is_peak` flag). CPU time is getrusage user + system.
//
// ResourceSampler runs a background thread taking one sample every
// `interval_ms` into a fixed-capacity ring (oldest samples overwritten
// and counted, like the trace rings), so memory stays bounded for
// arbitrarily long runs while the peak — tracked over every sample, even
// overwritten ones — stays exact at sample granularity. One sample is
// taken at start() and a final one at stop(), so even a sub-interval run
// gets a meaningful peak.
//
// The sampler feeds the RunReport "resources" section: peak RSS, CPU
// split, and a decimated RSS series.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace emc::obs {

/// One point-in-time reading.
struct ResourceUsage {
  std::int64_t t_ns = 0;          ///< steady-clock timestamp
  std::uint64_t rss_bytes = 0;    ///< resident set size (see rss_is_peak)
  std::uint64_t cpu_user_ns = 0;  ///< process user CPU time
  std::uint64_t cpu_sys_ns = 0;   ///< process system CPU time
  bool rss_is_peak = false;       ///< true when the getrusage fallback was used
};

/// Current process usage; never throws (fields read 0 where unsupported).
ResourceUsage sample_resources();

class ResourceSampler {
 public:
  struct Options {
    std::int64_t interval_ms = 25;
    std::size_t ring_capacity = 4096;
  };

  // Two constructors rather than `Options opt = {}`: a default argument
  // braced-initializing a nested aggregate with member initializers is
  // ill-formed inside the enclosing class definition.
  ResourceSampler();
  explicit ResourceSampler(Options opt);
  ~ResourceSampler();  ///< stops the thread if still running

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  /// Launch the sampling thread (idempotent). Takes an immediate sample.
  void start();
  /// Join the thread after one final sample (idempotent).
  void stop();
  bool running() const { return running_; }

  struct Stats {
    std::uint64_t samples = 0;        ///< taken (retained + overwritten)
    std::uint64_t dropped = 0;        ///< overwritten by ring overflow
    std::uint64_t peak_rss_bytes = 0; ///< max over every sample taken
    std::uint64_t cpu_user_ns = 0;    ///< of the last sample
    std::uint64_t cpu_sys_ns = 0;     ///< of the last sample
    std::int64_t wall_ns = 0;         ///< last sample time minus first
    bool rss_is_peak = false;         ///< fallback source in use
  };
  Stats stats() const;

  /// Retained samples, oldest first.
  std::vector<ResourceUsage> series() const;

  /// The RunReport "resources" section: stats plus an RSS series decimated
  /// to at most `max_series` points ({t_ms, rss_bytes} rows).
  Json to_json(std::size_t max_series = 64) const;

 private:
  void sample_locked();
  void loop();

  Options opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;

  std::vector<ResourceUsage> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  Stats stats_;
  std::int64_t first_t_ns_ = 0;
};

}  // namespace emc::obs
