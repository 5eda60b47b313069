// Sample accumulation and table formatting for the benchmark harnesses.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tfo {

/// Collects scalar samples and reports order statistics. Used by every
/// bench to produce the paper's "median / maximum" style rows.
class Sampler {
 public:
  void add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double min() const;
  double max() const;
  double mean() const;
  double median() const { return percentile(50.0); }
  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;

 private:
  // Sorted lazily by the accessors.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void sort() const;
};

/// Fixed-width text table, printed in the style of the paper's figures.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  /// Renders with column widths fitted to content.
  std::string render() const;

  // Structured access for machine-readable bench artifacts.
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Formats a double with `prec` digits after the point.
  static std::string num(double v, int prec = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tfo
