#include "signal/csv.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace emc::sig {

namespace {

/// Flush and verify the stream; throws so a failed write (disk full,
/// permission lost mid-stream) can never yield a silently truncated file.
void check_stream(std::ofstream& os, const std::string& what, const std::string& path) {
  os.flush();
  if (!os) throw std::runtime_error(what + ": write failed for " + path);
}

}  // namespace

void write_csv(const std::string& path, const std::vector<std::string>& names,
               const std::vector<Waveform>& columns) {
  if (names.size() != columns.size())
    throw std::invalid_argument("write_csv: names/columns size mismatch");
  if (columns.empty()) throw std::invalid_argument("write_csv: no columns");

  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());

  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_csv: cannot open " + path);

  os << "time";
  for (const auto& n : names) os << ',' << n;
  os << '\n';

  const Waveform& grid = columns.front();
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const double t = grid.time_at(k);
    os << t;
    for (const auto& w : columns) os << ',' << w.value_at(t);
    os << '\n';
  }
  check_stream(os, "write_csv", path);
}

void write_spectrum_csv(const std::string& path, const std::vector<std::string>& names,
                        const std::vector<double>& freq,
                        const std::vector<std::vector<double>>& columns) {
  if (names.size() != columns.size())
    throw std::invalid_argument("write_spectrum_csv: names/columns size mismatch");
  if (columns.empty()) throw std::invalid_argument("write_spectrum_csv: no columns");
  for (const auto& c : columns)
    if (c.size() != freq.size())
      throw std::invalid_argument("write_spectrum_csv: column length != freq length");

  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());

  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_spectrum_csv: cannot open " + path);

  os << "freq_hz";
  for (const auto& n : names) os << ',' << n;
  os << '\n';
  for (std::size_t k = 0; k < freq.size(); ++k) {
    os << freq[k];
    for (const auto& c : columns) os << ',' << c[k];
    os << '\n';
  }
  check_stream(os, "write_spectrum_csv", path);
}

}  // namespace emc::sig
