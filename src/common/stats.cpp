#include "common/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace tfo {

void Sampler::sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Sampler::min() const {
  if (samples_.empty()) throw std::logic_error("Sampler::min on empty sampler");
  sort();
  return samples_.front();
}

double Sampler::max() const {
  if (samples_.empty()) throw std::logic_error("Sampler::max on empty sampler");
  sort();
  return samples_.back();
}

double Sampler::mean() const {
  if (samples_.empty()) throw std::logic_error("Sampler::mean on empty sampler");
  double s = 0;
  for (double v : samples_) s += v;
  return s / static_cast<double>(samples_.size());
}

double Sampler::percentile(double p) const {
  if (samples_.empty()) throw std::logic_error("Sampler::percentile on empty sampler");
  sort();
  if (samples_.size() == 1) return samples_[0];
  const double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

namespace {

/// Display width of a UTF-8 cell: its code points, i.e. the bytes that are
/// not continuation bytes (10xxxxxx).
std::size_t display_width(const std::string& cell) {
  return static_cast<std::size_t>(std::count_if(cell.begin(), cell.end(), [](char ch) {
    return (static_cast<unsigned char>(ch) & 0xC0) != 0x80;
  }));
}

}  // namespace

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = display_width(headers_[c]);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], display_width(row[c]));
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << ' ' << cell << std::string(widths[c] - display_width(cell), ' ') << " |";
    }
    os << '\n';
  };
  emit_row(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace tfo
