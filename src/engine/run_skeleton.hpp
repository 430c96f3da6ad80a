// The run skeleton shared by the Pregel and GAS engines (DESIGN.md §17).
//
// Both engines run the same outer timeline. It has a LoadGraph phase, then
// an Execute phase of barriered steps (Superstep / Iteration), then a
// StoreResults phase. Under fault injection it adds periodic checkpoints,
// silent worker crashes that heartbeat timeouts detect, and
// checkpoint-restart recovery. RunSkeleton owns that timeline once:
//   - fault resolution and the failure detector / channel / batcher setup;
//   - the background-noise and NIC-rate timelines;
//   - checkpoint write, completion and abort;
//   - crash firing, detection and the Recovery window;
//   - Job/LoadGraph/StoreResults emission and ground-truth assembly.
//
// An engine derives from it and plugs its step logic in through the hooks
// below. The skeleton calls them only at load, checkpoint, crash and store
// points. Hot loops (chunk dispatch, message delivery, gather/apply/scatter
// effects) stay in the engines and read the shared state directly.
//
// Every RNG draw keeps its place in the run's single draw sequence, with
// workers visited in ascending order, so traces stay byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/step_function.hpp"
#include "common/time.hpp"
#include "engine/comm_batcher.hpp"
#include "engine/fault_tolerance.hpp"
#include "engine/phase_logger.hpp"
#include "graph/graph.hpp"
#include "sim/failure_detector.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fluid_queue.hpp"
#include "sim/reliable_channel.hpp"
#include "sim/simulation.hpp"
#include "sim/usage_recorder.hpp"
#include "trace/records.hpp"
#include "trace/symbol_table.hpp"

namespace g10::engine {

/// Load and store costs, which both engines' cost models spell the same way.
struct IoCosts {
  double work_per_load_edge;
  double bytes_per_load_edge;
  double work_per_store_vertex;

  template <typename CostModel>
  static IoCosts of(const CostModel& costs) {
    return {costs.work_per_load_edge, costs.bytes_per_load_edge,
            costs.work_per_store_vertex};
  }
};

/// Closed-form makespan estimate that anchors percent-based fault times.
/// It is the total modeled work over aggregate cluster throughput, plus
/// `step_seconds` of fixed cost per step. A step costs `step_vertex_work`
/// per vertex and `step_edge_work` per edge. Steps are capped at 64 for
/// convergence-bounded programs. It ignores GC, stalls and jitter on
/// purpose: fault times need a stable, roughly scaled anchor, not an
/// accurate prediction.
TimeNs nominal_horizon(const RunConfig& cfg, const graph::Graph& g,
                       const IoCosts& io, int max_steps,
                       double step_vertex_work, double step_edge_work,
                       double step_seconds);

/// Whole-run mutable state shared by both engines. One instance per run;
/// the event callbacks all close over `this`.
class RunSkeleton {
 public:
  /// `step_type` names the engine's step phase (Superstep / Iteration).
  RunSkeleton(const RunConfig& cfg, const IoCosts& io,
              trace::Symbol step_type);
  virtual ~RunSkeleton() = default;
  RunSkeleton(const RunSkeleton&) = delete;
  RunSkeleton& operator=(const RunSkeleton&) = delete;

  /// Resolves the fault plan against `horizon`, loads the graph, simulates
  /// the job to completion and assembles the artifacts: phases, blocking
  /// events, comm stats, ground truth and the final vertex values.
  trace::RunArtifacts execute(TimeNs horizon);

 protected:
  // ---- engine hooks ---------------------------------------------------------
  /// Builds the partitioning and per-run state. Returns the edges each
  /// worker ingests during LoadGraph.
  virtual std::vector<double> load_graph() = 0;
  /// Starts the next step (Superstep / Iteration) at `t`, or calls
  /// finish_execute when the job is done.
  virtual void start_step(TimeNs t) = 0;
  /// Saves / restores the algorithm state a checkpoint covers.
  virtual void save_state() = 0;
  virtual void restore_state() = 0;
  /// Tears down worker w's part of the in-flight step. It releases the
  /// worker's CPU and closes its open phases; with `truncate` it abandons
  /// them instead.
  virtual void abort_worker_step(int w, TimeNs now, bool truncate) = 0;
  /// Closes the aborted step's global phases and returns the close time.
  /// The close time covers every END the step logged ahead of simulated
  /// time.
  virtual TimeNs close_aborted_step(TimeNs now, bool truncate) = 0;
  /// Vertices worker w checkpoints, reloads and stores.
  virtual double worker_vertex_count(int w) const = 0;
  /// Extra work the restarted crash victim w spends reloading, on top of
  /// its snapshot.
  virtual double victim_reload_work(int /*w*/) const { return 0.0; }

  // ---- services for the engines -------------------------------------------
  DurationNs ns_for_work(double work) const {
    return static_cast<DurationNs>(
        work / run_cfg_.cluster.machine.core_work_per_sec *
        static_cast<double>(kSecond));
  }
  static DurationNs ns_from_seconds(double s) {
    return static_cast<DurationNs>(s * static_cast<double>(kSecond));
  }
  double jitter(double magnitude) {
    return 1.0 + magnitude * (2.0 * rng_.next_double() - 1.0);
  }
  sim::FluidQueue& nic(int w) {
    return *machines_[static_cast<std::size_t>(w)].nic;
  }
  sim::UsageRecorder& cpu(int w) {
    return *machines_[static_cast<std::size_t>(w)].cpu;
  }
  bool dead(int w) const { return dead_[static_cast<std::size_t>(w)] != 0; }
  /// Path of the current step. It counts step instances, not logical steps:
  /// a step re-executed after a crash gets a fresh index, so every path in
  /// the log stays unique.
  trace::PathRef step_path() const {
    return exec_path_.child(step_type_, step_instance_);
  }

  /// Schedules `fn` at `t`, cancelled implicitly when a crash bumps the
  /// epoch: every event belonging to the aborted execution attempt carries
  /// the epoch it was scheduled in and becomes a no-op once stale.
  template <typename Fn>
  void schedule_epoch(TimeNs t, Fn fn) {
    sim_.schedule_at(t, [this, e = epoch_, fn = std::move(fn)]() mutable {
      if (e == epoch_) fn();
    });
  }

  /// Step boundary at `t` after `steps_done` completed steps: retires the
  /// step's path index, writes a checkpoint when one is due, then starts
  /// the next step.
  void checkpoint_or_continue(TimeNs t, int steps_done);
  /// Drains every coalescing buffer of worker w; returns the total bytes.
  double drain_batches(int w, FlushCause cause);
  /// Hands one transfer of `bytes` from w to dst to the transport. Returns
  /// when the sender may proceed: `now` on the trivial channel, otherwise
  /// the reliable plan's completion time. Every planned attempt, retransmits
  /// included, costs the payload on w's NIC at its own time.
  TimeNs transmit(int w, int dst, double bytes, TimeNs now);
  /// Ends Execute at `t` and emits StoreResults; the job is then finished.
  void finish_execute(TimeNs t);
  /// Ends an open phase at `now` (never before its begin), or abandons it
  /// when `truncate`. A phase that is not open is left alone.
  void close_or_abandon(const trace::PathRef& path, bool truncate, TimeNs now,
                        trace::MachineId machine);

  Rng rng_;
  sim::FaultInjector faults_;
  const int workers_;
  const int threads_;
  sim::Simulation sim_;
  PhaseLogger log_;
  std::vector<double> value_;  ///< per-vertex algorithm values

  // Per-destination send coalescing (DESIGN.md §13) plus the run's logical
  // communication counters reported through RunArtifacts::comm.
  CommBatcher batcher_;
  std::vector<CommBatcher::Flush> flush_scratch_;
  trace::CommStats comm_;

  sim::ReliableChannel channel_;
  bool any_dead_ = false;  ///< a crash awaits detection and recovery

 private:
  /// Per-machine resources: NIC queue, CPU usage and the background-CPU
  /// random walk.
  struct Machine {
    std::unique_ptr<sim::FluidQueue> nic;
    std::unique_ptr<sim::UsageRecorder> cpu;
    StepFunction noise;
    double noise_level = 0.0;
  };

  void emit_load(const std::vector<double>& edges);
  void noise_tick(int w);
  void schedule_nic_changes();
  TimeNs write_checkpoint(TimeNs t);
  void complete_checkpoint();
  void abort_checkpoint(int victim, TimeNs now);
  void schedule_next_crash(TimeNs floor);
  void fire_crash();
  void detect_and_recover();
  /// Tears down worker w's in-flight step and drops its queued traffic.
  void teardown_worker(int w, TimeNs now, bool truncate);

  const RunConfig& run_cfg_;
  const IoCosts io_;
  const trace::PathRef job_path_;
  const trace::PathRef exec_path_;
  const trace::Symbol step_type_;
  std::vector<Machine> machines_;
  std::vector<char> dead_;  ///< per-worker: crashed, not yet recovered
  bool execute_finished_ = false;
  int step_instance_ = 0;  ///< step path index, never reused
  TimeNs makespan_ = 0;
  std::uint64_t epoch_ = 0;     ///< bumped when recovery aborts an attempt
  bool checkpointing_ = false;  ///< armed iff the spec contains a crash
  sim::FailureDetector detector_;
  int crash_victim_ = -1;
  TimeNs crash_time_ = 0;
  int recovery_seq_ = 0;
  int checkpoint_seq_ = 0;
  bool checkpoint_active_ = false;  ///< a checkpoint write is in flight
  trace::PathRef checkpoint_path_;
  std::vector<TimeNs> checkpoint_wend_;  ///< per-worker write-finish times
};

}  // namespace g10::engine
