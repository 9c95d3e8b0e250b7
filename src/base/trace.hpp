// trace.hpp — waveform recording for analog signals.
//
// A Trace captures (t, v) samples from a simulation, optionally decimated
// so multi-million-step runs stay memory-bounded. Used by benches that
// reproduce transient figures and by tests that check waveform properties.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace uwbams::base {

class Trace {
 public:
  // decimation = keep every Nth sample (1 = keep all).
  explicit Trace(std::string name = "trace", std::size_t decimation = 1)
      : name_(std::move(name)), decimation_(decimation ? decimation : 1) {}

  void record(double t, double v);

  const std::string& name() const { return name_; }
  std::size_t size() const { return t_.size(); }
  bool empty() const { return t_.empty(); }
  const std::vector<double>& times() const { return t_; }
  const std::vector<double>& values() const { return v_; }

  // Value at time t by linear interpolation (clamped at the ends).
  double at(double t) const;
  double max_value() const;
  double min_value() const;
  // First time the trace crosses `level` rising (or -1 if never).
  double first_crossing(double level) const;
  // CSV dump ("t,v" lines) for offline plotting.
  std::string to_csv() const;

 private:
  std::string name_;
  std::size_t decimation_;
  std::size_t counter_ = 0;
  std::vector<double> t_;
  std::vector<double> v_;
};

}  // namespace uwbams::base
