#include "base/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace uwbams::base {

void Trace::record(double t, double v) {
  if (counter_++ % decimation_ != 0) return;
  t_.push_back(t);
  v_.push_back(v);
}

double Trace::at(double t) const {
  if (t_.empty()) throw std::logic_error("Trace::at on empty trace");
  if (t <= t_.front()) return v_.front();
  if (t >= t_.back()) return v_.back();
  const auto it = std::lower_bound(t_.begin(), t_.end(), t);
  const auto i = static_cast<std::size_t>(it - t_.begin());
  const double t0 = t_[i - 1], t1 = t_[i];
  const double f = (t1 > t0) ? (t - t0) / (t1 - t0) : 0.0;
  return v_[i - 1] * (1.0 - f) + v_[i] * f;
}

double Trace::max_value() const {
  if (v_.empty()) throw std::logic_error("Trace::max_value on empty trace");
  return *std::max_element(v_.begin(), v_.end());
}

double Trace::min_value() const {
  if (v_.empty()) throw std::logic_error("Trace::min_value on empty trace");
  return *std::min_element(v_.begin(), v_.end());
}

double Trace::first_crossing(double level) const {
  for (std::size_t i = 1; i < v_.size(); ++i) {
    if (v_[i - 1] < level && v_[i] >= level) {
      const double f = (level - v_[i - 1]) / (v_[i] - v_[i - 1]);
      return t_[i - 1] + f * (t_[i] - t_[i - 1]);
    }
  }
  return -1.0;
}

std::string Trace::to_csv() const {
  std::ostringstream os;
  os << "t," << name_ << "\n";
  char buf[96];
  for (std::size_t i = 0; i < t_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.9e,%.9e\n", t_[i], v_[i]);
    os << buf;
  }
  return os.str();
}

}  // namespace uwbams::base
