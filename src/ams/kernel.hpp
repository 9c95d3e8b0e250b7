// kernel.hpp — the AMS co-simulation kernel (the "ADMS" role).
//
// The paper's methodology rests on simulating blocks of different
// abstraction levels in one environment: behavioral VHDL-AMS entities,
// digital processes and an imported Spice netlist all advance together.
// This kernel provides exactly that contract:
//
//   * AnalogBlock — sample-rate blocks advanced every fixed time step in
//     registration (dataflow) order; a block may be a one-line behavioral
//     model or a SpiceBridge wrapping a transistor-level netlist
//     (substitute-and-play: both satisfy the same interface).
//   * DigitalProcess — event-driven processes woken at scheduled times
//     (clock dividers, FSMs, controllers). Events due at or before the
//     current time fire before the next analog step, so digital decisions
//     see the analog state of the just-completed step.
//
// The fixed step matches the paper's solver setup (0.05 ns system runs).
// The kernel's macro step is also the co-simulation exchange interval: a
// SpiceBridge advances its embedded solver by exactly one macro step per
// kernel step.
//
// Batched execution (opt-in, see enable_batching()): run_until() advances
// the analog blocks in *event-bounded batches* of up to kMaxBatch samples.
// The batch boundary is min(samples to the next due digital event, batch
// capacity, samples to t_stop), so digital processes observe exactly the
// same sample boundaries as the per-sample path, and batch-capable blocks
// (supports_batch()) process tight per-sample loops over their producers'
// output buffers with bit-identical results (same per-sample operation
// order, same RNG draw order). A single registered block without batch
// support drops the whole kernel back to the per-sample path — the scalar
// step() fallback is always preserved.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace uwbams::ams {

class Kernel;

// Upper bound on the batched-execution block size (samples). Batch-capable
// blocks preallocate their output signal buffers at this capacity, so the
// constant also fixes the per-block buffer footprint (2 KiB of doubles).
inline constexpr int kMaxBatch = 256;

// A block advanced once per analog time step, in registration order.
// Communication is through plain double signals owned by the blocks;
// consumers hold const pointers to producer outputs (wired by the
// testbench at build time). For a batch-capable block the pointer returned
// by its out() accessor is the base of a kMaxBatch-deep sample buffer:
// element 0 is the live per-sample value ONLY on the scalar path; during
// batched runs elements 0..n-1 hold the current batch (element 0 = the
// batch's first sample), so code that dereferences raw signal pointers
// between steps must keep its kernel on the scalar path.
class AnalogBlock {
 public:
  virtual ~AnalogBlock() = default;
  // Advance internal state from t to t+dt using the inputs sampled at the
  // wired signals. Outputs must be updated before returning.
  virtual void step(double t, double dt) = 0;

  // True when this block implements step_block() over per-sample signal
  // buffers. The kernel batches only when *every* registered block agrees,
  // so the default keeps any custom block on the per-sample path.
  virtual bool supports_batch() const { return false; }

  // Advance n samples whose times are t[0..n-1] (t[i+1] = t[i] + dt, the
  // same accumulated values the per-sample path would see). A batch-capable
  // block must read its inputs per sample (producer buffers filled earlier
  // in registration order this batch) and write its own output buffer
  // samples 0..n-1. Must be bit-identical to n calls of step(): same
  // per-sample operation order, same RNG draw order. The default runs the
  // scalar fallback (never invoked by the kernel unless supports_batch()).
  virtual void step_block(const double* t, double dt, int n) {
    for (int i = 0; i < n; ++i) step(t[i], dt);
  }
};

// An event-driven digital process. wake() may schedule further events.
class DigitalProcess {
 public:
  virtual ~DigitalProcess() = default;
  virtual void wake(Kernel& kernel, double t) = 0;
};

class Kernel {
 public:
  explicit Kernel(double dt);

  double dt() const { return dt_; }
  double time() const { return t_; }
  std::uint64_t steps() const { return steps_; }

  // Registers an analog block (non-owning; testbench owns blocks). Order of
  // registration is the per-step evaluation order.
  void add_analog(AnalogBlock& block);
  // Schedules a digital wake-up at absolute time t (>= current time).
  void schedule(DigitalProcess& process, double t);
  // Schedules a one-shot callback at absolute time t.
  void schedule_callback(double t, std::function<void(double)> fn);

  // Opts this kernel into batched execution with the given batch capacity
  // (clamped to [1, kMaxBatch]). Only call when every registered block's
  // input is wired to a batch-capable producer output (a block out()
  // buffer) — not to a plain scalar double — since batched consumers index
  // their input pointer per sample. Environment overrides (read here, so a
  // later call re-reads them): UWBAMS_FORCE_SCALAR=1 pins the capacity to 1
  // (the CI honesty toggle that forces the per-sample fallback), and
  // UWBAMS_BATCH_CAP=n overrides the capacity.
  void enable_batching(int capacity = kMaxBatch);
  int batch_capacity() const { return batch_capacity_; }
  // True when run_until() will actually batch: capacity > 1 and every
  // registered block supports_batch().
  bool batching_active() const {
    return batch_capacity_ > 1 && all_blocks_batch_ && !analog_.empty();
  }
  // Count of executed batches by size (index = batch length in samples;
  // index 0 unused). Sized kMaxBatch+1 once batching is enabled.
  const std::vector<std::uint64_t>& batch_histogram() const {
    return batch_hist_;
  }

  // Runs one analog step: first fires every digital event due at or before
  // the current time, then advances all analog blocks by dt. Always the
  // per-sample path (batching applies to run_until only).
  void step();
  // Steps until time() >= t_stop (within half a step), in event-bounded
  // batches when batching_active().
  void run_until(double t_stop);

 private:
  struct Event {
    double t;
    std::uint64_t seq;  // FIFO tie-break for equal times
    DigitalProcess* process;
    std::function<void(double)> callback;
    bool operator>(const Event& o) const {
      return t > o.t || (t == o.t && seq > o.seq);
    }
  };

  void fire_due_events();

  double dt_;
  double t_ = 0.0;
  std::uint64_t steps_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<AnalogBlock*> analog_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;

  // Batched execution state. batch_times_ carries the per-sample times of
  // the current batch, built by the same repeated `t += dt` accumulation
  // the per-sample path performs, so block time arguments are bit-identical
  // across batch capacities.
  int batch_capacity_ = 1;
  bool all_blocks_batch_ = true;
  std::array<double, kMaxBatch> batch_times_{};
  std::vector<std::uint64_t> batch_hist_;
};

}  // namespace uwbams::ams
