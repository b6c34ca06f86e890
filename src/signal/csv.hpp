// Minimal CSV writer for benchmark/experiment series output.
#pragma once

#include <string>
#include <vector>

#include "signal/waveform.hpp"

namespace emc::sig {

/// Write aligned waveform columns to a CSV file with a header row:
/// time,<name0>,<name1>,... All waveforms are interpolated onto the grid of
/// the first one. Creates parent directories if missing.
/// Throws std::runtime_error if the file cannot be opened OR if any write
/// fails (disk full, pipe closed): a truncated file is never reported as
/// success.
void write_csv(const std::string& path, const std::vector<std::string>& names,
               const std::vector<Waveform>& columns);

/// Write spectral columns to a CSV file with a header row:
/// freq_hz,<name0>,<name1>,... All columns must have the same length as
/// `freq` (values in whatever unit the producer used, typically dBuV).
/// Creates parent directories if missing. Throws std::runtime_error if the
/// file cannot be opened or any write fails (no silent truncation).
void write_spectrum_csv(const std::string& path, const std::vector<std::string>& names,
                        const std::vector<double>& freq,
                        const std::vector<std::vector<double>>& columns);

}  // namespace emc::sig
