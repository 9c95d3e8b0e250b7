#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "spice/engine_counters.hpp"
#include "spice/mosfet.hpp"

namespace uwbams::spice {

TransientSession::TransientSession(Circuit& circuit, TransientOptions options)
    : circuit_(&circuit), opts_(options), mna_(0) {
  circuit_->prepare();
  OpResult op = solve_op(*circuit_, opts_.op);
  if (!op.converged)
    throw std::runtime_error("TransientSession: operating point did not converge");
  op_ = op.x;
  x_ = op.x;
  for (const auto& dev : circuit_->devices()) dev->init_state(x_);
  // One structure-locked workspace for the session's whole lifetime.
  pattern_ = circuit_->stamp_pattern();
  mna_ = Mna<double>(*pattern_);
  for (const auto& dev : circuit_->devices()) {
    if (auto* m = dynamic_cast<Mosfet*>(dev.get())) {
      m->set_fused_commit(opts_.fused_commit);
      mosfets_.push_back(m);
    } else {
      others_.push_back(dev.get());
    }
    const Device* d = dev.get();
    const bool stateless = dynamic_cast<const Resistor*>(d) ||
                           dynamic_cast<const VoltageSource*>(d) ||
                           dynamic_cast<const CurrentSource*>(d) ||
                           dynamic_cast<const Vcvs*>(d) ||
                           dynamic_cast<const Vccs*>(d);
    if (!stateless) stateful_.push_back(dev.get());
  }
  lu_.set_packed_solve(opts_.packed_solve);
  x_work_ = x_;
  x_new_ = x_;
  x_prev_ = x_;
  dt_next_ = opts_.dt;
}

TransientSession::~TransientSession() {
  engine_counters::add_transient(stats_);
}

double TransientSession::v(const std::string& node_name) const {
  const NodeId n = circuit_->find_node(node_name);
  if (n < 0)
    throw std::invalid_argument("TransientSession: unknown node '" + node_name + "'");
  return v(n);
}

VoltageSource& TransientSession::source(const std::string& name) {
  Device* d = circuit_->find_device(name);
  auto* vs = dynamic_cast<VoltageSource*>(d);
  if (!vs)
    throw std::invalid_argument("TransientSession: no voltage source '" + name + "'");
  return *vs;
}

void TransientSession::record_failure(std::string reason, double pivot_ratio) {
  stats_.last_failure = std::move(reason);
  stats_.last_failure_pivot_ratio = pivot_ratio;
}

bool TransientSession::newton_step(double dt, Integrator method,
                                   std::vector<double>& x) {
  const std::size_t n = circuit_->unknown_count();
  StampArgs args;
  args.mode = AnalysisMode::kTransient;
  args.method = method;
  args.t = t_ + dt;
  args.dt = dt;
  args.inv_dt = 1.0 / dt;
  args.gmin = opts_.gmin;
  args.x = &x;

  if (circuit_->linear()) {
    // Linear circuits: no stamp depends on x, so one solve is exact and the
    // matrix depends only on (dt, method) — a single cached factorization
    // serves the whole transient at a fixed step.
    mna_.reset();
    for (const auto& dev : circuit_->devices()) dev->stamp(mna_, args);
    ++stats_.newton_iterations;
    if (!linear_lu_fresh_ || linear_lu_dt_ != dt ||
        linear_lu_method_ != method) {
      // A (dt, method) change only rescales companion values — same
      // structure — so the frozen pivot order usually survives: refactor
      // first (cheap, no pivot search; essential under adaptive stepping
      // where dt changes nearly every step) and fall back to a fresh
      // partial-pivoting factorization when it degrades.
      bool factored = false;
      if (opts_.reuse_factorization && lu_primed_) {
        if (lu_.refactor(mna_.matrix())) {
          ++stats_.refactorizations;
          factored = true;
        }
      }
      if (!factored) {
        try {
          lu_.factor(mna_.matrix(), &pattern_->sparsity());
        } catch (const std::runtime_error& e) {
          ++stats_.singular_failures;
          record_failure("singular matrix in linear step at t=" +
                             std::to_string(args.t) + ": " + e.what(),
                         lu_.pivot_ratio());
          linear_lu_fresh_ = false;
          return false;
        }
        ++stats_.factorizations;
      }
      linear_lu_fresh_ = true;
      linear_lu_dt_ = dt;
      linear_lu_method_ = method;
      lu_primed_ = true;
    }
    x = mna_.rhs();
    lu_.solve_in_place(x);
    ++stats_.solves;
    return true;
  }

  const bool chord = opts_.lazy_jacobian && circuit_->residual_capable();
  const int refresh_every = std::max(1, opts_.jacobian_refresh_every);
  // Chord iterations only contract while the cached Jacobian is close
  // enough; track the update norm and rebuild as soon as contraction stops
  // (mode switches, large drive edges) instead of waiting for the budget.
  constexpr double kChordClamp = 1.0;  // revert chord updates larger than this
  double prev_max_delta = std::numeric_limits<double>::infinity();
  bool chord_ok = chord;  // cleared for the attempt once chording misbehaves
  int chord_streak = 0;
  for (int it = 0; it < opts_.max_newton; ++it) {
    ++stats_.newton_iterations;
    const bool jac_stale = !lu_primed_ || jac_dt_ != dt || jac_method_ != method;
    const bool refresh =
        !chord_ok || jac_stale || (chord_streak >= refresh_every);
    double check = 0.0;  // NaN/inf sentinel over the update
    bool converged = true;
    if (refresh) {
      // Full Newton iteration: assemble the linearized system, factorize
      // (reusing the frozen pivot order when allowed, falling back to a
      // fresh partial-pivoting factorization when it degrades) and solve.
      mna_.reset();
      for (const Device* dev : others_) dev->stamp(mna_, args);
      for (const Mosfet* m : mosfets_) m->Mosfet::stamp(mna_, args);
      bool factored = false;
      if (opts_.reuse_factorization && lu_primed_) {
        if (lu_.refactor(mna_.matrix())) {
          ++stats_.refactorizations;
          factored = true;
        }
      }
      if (!factored) {
        // The symbolic analysis only pays off when the factorization will
        // be reused; a pure per-iteration engine factors densely.
        const linalg::SparsityPattern* sym =
            (opts_.reuse_factorization || chord) ? &pattern_->sparsity()
                                                 : nullptr;
        try {
          lu_.factor(mna_.matrix(), sym);
        } catch (const std::runtime_error& e) {
          ++stats_.singular_failures;
          record_failure("singular matrix at t=" + std::to_string(args.t) +
                             " (newton iteration " + std::to_string(it + 1) +
                             "): " + e.what(),
                         lu_.pivot_ratio());
          lu_primed_ = false;
          return false;
        }
        ++stats_.factorizations;
        lu_primed_ = true;
      }
      jac_dt_ = dt;
      jac_method_ = method;
      x_new_ = mna_.rhs();
      lu_.solve_in_place(x_new_);
      ++stats_.solves;
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double delta = x_new_[i] - x[i];
        check += delta;
        max_delta = std::max(max_delta, std::abs(delta));
        if (std::abs(delta) > opts_.vabstol + opts_.reltol * std::abs(x_new_[i]))
          converged = false;
      }
      x.swap(x_new_);
      prev_max_delta = max_delta;
      chord_streak = 0;
    } else {
      // Chord iteration: device currents only, solved against the cached
      // factorization. Same fixed point, no assembly, no factorization.
      f_.assign(n, 0.0);
      for (const Device* dev : others_) dev->residual(f_, args);
      for (const Mosfet* m : mosfets_) m->Mosfet::residual(f_, args);
      if (opts_.iabstol > 0.0) {
        // The KCL mismatch of the current iterate is already below the
        // current tolerance everywhere: accept without the confirming
        // solve-and-update (the update it would compute is O(|f|)).
        double max_f = 0.0;
        for (std::size_t i = 0; i < n; ++i)
          max_f = std::max(max_f, std::abs(f_[i]));
        if (max_f <= opts_.iabstol) return true;
      }
      lu_.solve_in_place(f_);
      ++stats_.solves;
      const double scale = opts_.chord_tol_scale;
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double delta = f_[i];
        check += delta;
        max_delta = std::max(max_delta, std::abs(delta));
        x[i] -= delta;
        if (std::abs(delta) >
            scale * (opts_.vabstol + opts_.reltol * std::abs(x[i])))
          converged = false;
      }
      ++chord_streak;
      if (std::isfinite(check) && max_delta > kChordClamp) {
        // The stale Jacobian sent the iterate flying; undo the update and
        // run full Newton for the rest of this attempt.
        for (std::size_t i = 0; i < n; ++i) x[i] += f_[i];
        chord_ok = false;
        continue;
      }
      // A chord pass that stops contracting (mode switches, region
      // chatter) would limit-cycle against the refreshes; fall back to
      // full Newton for the rest of this attempt instead.
      if (max_delta >= prev_max_delta) chord_ok = false;
      prev_max_delta = max_delta;
    }
    if (!std::isfinite(check)) {
      ++stats_.singular_failures;
      record_failure("non-finite Newton update at t=" + std::to_string(args.t) +
                         " (newton iteration " + std::to_string(it + 1) +
                         ", pivot ratio " + std::to_string(lu_.pivot_ratio()) +
                         ")",
                     lu_.pivot_ratio());
      lu_primed_ = false;
      return false;
    }
    if (converged) return true;
  }
  ++stats_.nonconverged_failures;
  record_failure("Newton did not converge in " +
                     std::to_string(opts_.max_newton) + " iterations at t=" +
                     std::to_string(t_ + dt) +
                     " (pivot ratio " + std::to_string(lu_.pivot_ratio()) + ")",
                 lu_.pivot_ratio());
  return false;
}

void TransientSession::commit_all(const std::vector<double>& x, double dt) {
  for (Device* dev : stateful_) dev->commit(x, t_ + dt, dt);
}

// Linear history extrapolation over dt — the adaptive LTE reference.
void TransientSession::extrapolate_into(double dt,
                                        std::vector<double>& out) const {
  const double r = dt / dt_prev_;
  out.resize(x_.size());
  for (std::size_t i = 0; i < x_.size(); ++i)
    out[i] = x_[i] + (x_[i] - x_prev_[i]) * r;
}

void TransientSession::note_history(double dt) {
  // x_work_ holds the accepted solution; keep the outgoing committed one as
  // the predictor history point.
  x_prev_ = x_;
  x_.swap(x_work_);
  dt_prev_ = dt;
  have_history_ = true;
}

void TransientSession::step(double dt) {
  if (dt <= 0.0) throw std::invalid_argument("TransientSession::step: dt <= 0");

  x_work_ = x_;  // Newton starts from the committed solution
  if (newton_step(dt, opts_.method, x_work_)) {
    commit_all(x_work_, dt);
    note_history(dt);
    t_ += dt;
    ++stats_.steps;
    ++stats_.accepted_steps;
    return;
  }

  // Fallback 1: backward Euler is more damped, often rescues the step.
  ++stats_.rejected_steps;
  x_work_ = x_;
  if (newton_step(dt, Integrator::kBackwardEuler, x_work_)) {
    commit_all(x_work_, dt);
    note_history(dt);
    t_ += dt;
    ++stats_.steps;
    ++stats_.accepted_steps;
    ++stats_.fallback_steps;
    return;
  }

  // Fallback 2: four BE sub-steps.
  ++stats_.rejected_steps;
  ++stats_.fallback_steps;
  const double sub = dt / 4.0;
  for (int k = 0; k < 4; ++k) {
    x_work_ = x_;
    if (!newton_step(sub, Integrator::kBackwardEuler, x_work_))
      throw std::runtime_error(
          "TransientSession: Newton failed at t=" + std::to_string(t_) +
          (stats_.last_failure.empty() ? "" : ": " + stats_.last_failure));
    commit_all(x_work_, sub);
    note_history(sub);
    t_ += sub;
    ++stats_.accepted_steps;
  }
  ++stats_.steps;
}

void TransientSession::run_until(double t_stop) {
  while (t_ < t_stop - 0.5 * opts_.dt) step(opts_.dt);
}

double TransientSession::next_break_time() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& dev : circuit_->devices())
    best = std::min(best, dev->next_break(t_));
  return best;
}

void TransientSession::advance_to(double t_stop) {
  const AdaptiveOptions& ao = opts_.adaptive;
  const double teps =
      1e-12 * std::max({std::abs(t_stop), opts_.dt, 1e-12});
  // Never rewind: committed device history lives at time(); snapping t_
  // backwards would desynchronize sources from companion state.
  if (t_stop <= t_ + teps) return;
  if (!ao.enabled) {
    // Full opts.dt steps while they fit, then one remainder step — never
    // stepping past t_stop (overshooting would commit device history at a
    // time the snap below rewinds away from).
    while (t_stop - t_ > opts_.dt * (1.0 + 1e-9)) step(opts_.dt);
    const double rem = t_stop - t_;
    if (rem > teps) step(rem);
    t_ = t_stop;
    return;
  }

  if (dt_next_ <= 0.0) dt_next_ = opts_.dt;
  while (t_ < t_stop - teps) {
    // The controller's proposal, before event clipping. Growth decisions
    // are based on this (not on the clipped step), so landing exactly on a
    // breakpoint or macro boundary does not collapse the step size.
    double proposal = dt_next_;
    if (ao.dt_max > 0.0) proposal = std::min(proposal, ao.dt_max);
    proposal = std::max(proposal, ao.dt_min);
    // Event-aligned stepping: land exactly on the nearer of t_stop and the
    // next source-waveform discontinuity, splitting the remainder so the
    // landing step is never a sliver.
    double dt = proposal;
    const double limit = std::min(t_stop, next_break_time());
    const double rem = limit - t_;
    if (dt >= rem)
      dt = rem;
    else if (dt > 0.5 * rem)
      dt = 0.5 * rem;
    if (dt <= 0.0) break;  // numerical corner: already at the limit

    x_work_ = x_;
    bool ok = newton_step(dt, opts_.method, x_work_);
    if (!ok) {
      x_work_ = x_;  // rescue from the committed solution
      ok = newton_step(dt, Integrator::kBackwardEuler, x_work_);
      if (ok) ++stats_.fallback_steps;
    }
    if (!ok) {
      ++stats_.rejected_steps;
      if (dt <= ao.dt_min * (1.0 + 1e-9))
        throw std::runtime_error(
            "TransientSession: Newton failed at minimum step, t=" +
            std::to_string(t_) +
            (stats_.last_failure.empty() ? "" : ": " + stats_.last_failure));
      dt_next_ = std::max(dt * ao.shrink, ao.dt_min);
      continue;
    }

    // LTE accept/reject: compare the corrector against the linear history
    // extrapolation; the /3 matches the trapezoidal-vs-explicit error split.
    double err = 0.0;
    if (have_history_ && dt_prev_ > 0.0) {
      extrapolate_into(dt, x_pred_);
      for (std::size_t i = 0; i < x_.size(); ++i) {
        const double scale =
            ao.lte_abstol +
            ao.lte_reltol * std::max(std::abs(x_work_[i]), std::abs(x_[i]));
        err = std::max(err, std::abs(x_work_[i] - x_pred_[i]) / (3.0 * scale));
      }
    }
    if (err > 1.0 && dt > ao.dt_min * (1.0 + 1e-9)) {
      ++stats_.rejected_steps;
      const double f =
          std::max(ao.shrink, ao.safety * std::pow(err, -1.0 / 3.0));
      dt_next_ = std::max(dt * f, ao.dt_min);
      continue;
    }

    commit_all(x_work_, dt);
    note_history(dt);
    t_ += dt;
    ++stats_.steps;
    ++stats_.accepted_steps;
    double f = ao.grow_limit;
    if (err > 0.0)
      f = std::clamp(ao.safety * std::pow(err, -1.0 / 3.0), ao.shrink,
                     ao.grow_limit);
    // Grow from the unclipped proposal when the delivery was merely
    // event-aligned; the LTE at the (smaller) delivered dt can only have
    // been easier, so the proposal remains the controller's state.
    dt_next_ = std::max(std::max(dt, proposal) * f, ao.dt_min);
  }
  t_ = t_stop;  // snap off the accumulated landing rounding
}

}  // namespace uwbams::spice
