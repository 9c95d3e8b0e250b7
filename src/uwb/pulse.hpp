/// @file pulse.hpp
/// @brief UWB monocycle pulse shapes.
///
/// Impulse-radio UWB sends sub-ns baseband pulses directly to the antenna
/// (no carrier). The classic shapes are Gaussian derivatives; the antenna
/// differentiates once more in practice, so the 2nd derivative ("Mexican
/// hat") is the common received-waveform model and our default.
#pragma once

#include <vector>

namespace uwbams::uwb {

class GaussianMonocycle {
 public:
  /// order: Gaussian derivative order (1 or 2); sigma: pulse width parameter;
  /// amplitude: peak |value|.
  GaussianMonocycle(int order, double sigma, double amplitude);

  /// Waveform value at time t relative to the pulse center.
  double value(double t_rel) const;
  /// Energy of the continuous pulse (integral of value^2 dt), closed form.
  double energy() const;
  /// Time beyond which the pulse is negligible (|v| < ~1e-5 of peak).
  double half_duration() const { return 5.0 * sigma_; }
  double sigma() const { return sigma_; }
  int order() const { return order_; }
  double amplitude() const { return amplitude_; }

  /// Sampled waveform on [-half_duration, +half_duration] at step dt.
  std::vector<double> sampled(double dt) const;

 private:
  int order_;
  double sigma_;
  double amplitude_;
  double norm_;  ///< normalization so the peak equals `amplitude`
};

}  // namespace uwbams::uwb
