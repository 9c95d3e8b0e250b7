#include "uwb/pulse.hpp"

#include <cmath>
#include <stdexcept>

#include "base/units.hpp"

namespace uwbams::uwb {

GaussianMonocycle::GaussianMonocycle(int order, double sigma, double amplitude)
    : order_(order), sigma_(sigma), amplitude_(amplitude) {
  if (order != 1 && order != 2)
    throw std::invalid_argument("GaussianMonocycle: order must be 1 or 2");
  if (sigma <= 0.0)
    throw std::invalid_argument("GaussianMonocycle: sigma must be positive");
  // Peak magnitude of the raw derivative:
  //   order 1: max |t/s^2 e^{-t^2/2s^2}| = e^{-1/2}/s at t = s
  //   order 2: max |(1 - t^2/s^2) e^{-t^2/2s^2}| = 1 at t = 0
  norm_ = (order == 1) ? sigma * std::exp(0.5) : 1.0;
}

double GaussianMonocycle::value(double t_rel) const {
  const double x = t_rel / sigma_;
  const double g = std::exp(-0.5 * x * x);
  const double raw = (order_ == 1) ? (t_rel / (sigma_ * sigma_)) * g
                                   : (1.0 - x * x) * g;
  return amplitude_ * norm_ * raw;
}

double GaussianMonocycle::energy() const {
  // Closed forms for int v^2 dt of the normalized pulses:
  //   order 1 (peak-normalized): A^2 * s * e * int (x e^{-x^2/2})^2 dx
  //       = A^2 e s sqrt(pi)/2 * 1/2 ... evaluated below.
  //   order 2: A^2 * s * int (1-x^2)^2 e^{-x^2} dx = A^2 s (3/4) sqrt(pi)
  const double sqrt_pi = std::sqrt(units::pi);
  if (order_ == 1) {
    // v = A s e^{1/2} (t/s^2) e^{-t^2/2s^2}; int v^2 dt = A^2 e s sqrt(pi)/2.
    return amplitude_ * amplitude_ * std::exp(1.0) * sigma_ * sqrt_pi / 2.0;
  }
  // int (1 - x^2)^2 e^{-x^2} s dx = s * sqrt(pi) * 3/4.
  return amplitude_ * amplitude_ * sigma_ * sqrt_pi * 0.75;
}

std::vector<double> GaussianMonocycle::sampled(double dt) const {
  if (dt <= 0.0) throw std::invalid_argument("sampled: dt must be positive");
  const double hd = half_duration();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(2.0 * hd / dt) + 2);
  for (double t = -hd; t <= hd; t += dt) out.push_back(value(t));
  return out;
}

}  // namespace uwbams::uwb
