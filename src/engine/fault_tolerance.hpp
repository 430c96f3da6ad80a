// Run configuration shared by both simulated engines.
//
// The Pregel and the GAS engine run on one skeleton (engine/run_skeleton,
// DESIGN.md §17): the same cluster, background-noise, batching and
// fault-tolerance knobs, and the same recovery from injected worker crashes
// — periodic snapshots, heartbeat failure detection, restart from the last
// complete checkpoint — over a sim::ReliableChannel. RunConfig gathers those
// knobs; PregelConfig and GasConfig derive from it and add their own.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "engine/comm_batcher.hpp"
#include "engine/phase_logger.hpp"
#include "sim/cluster.hpp"
#include "sim/failure_detector.hpp"

namespace g10::engine {

/// Checkpoint/restart fault tolerance. Checkpointing is armed only when the
/// fault spec contains a crash event, so fault-free runs stay byte-identical
/// to runs produced before this feature existed.
struct CheckpointConfig {
  int interval_steps = 1;               ///< checkpoint every k supersteps
                                        ///< (Pregel) / iterations (GAS)
  double base_seconds = 0.010;          ///< fixed per-checkpoint barrier cost
  double work_per_vertex = 30.0;        ///< serialization work per vertex
  double restart_seconds = 0.25;        ///< master detects + reschedules
  double reload_work_per_vertex = 60.0; ///< deserialize state during recovery
};

/// Retransmission policy of the reliable channel carrying remote sends: a
/// lost message blocks the sender ("Retry" blocking event) for an
/// exponentially growing, deterministically jittered timeout before the
/// attempt is repeated. Partitioned links are ridden out past the budget;
/// plain loss is forced through once the budget ends.
struct RetryConfig {
  double timeout_seconds = 0.02;  ///< first retransmit timeout
  double backoff = 2.0;           ///< timeout multiplier per failed attempt
  double jitter = 0.25;           ///< deterministic timeout jitter fraction
  int max_attempts = 4;           ///< transmissions before the budget ends
};

/// Unmodeled background CPU activity per machine (OS daemons, JIT compiler
/// threads): a clamped random walk added to the ground-truth CPU signal.
/// Grade10's models do not describe it, which contributes realistic
/// attribution error (paper §IV-B). The defaults are the JVM engine's; the
/// GAS engine's native runtime is quieter (see GasConfig).
struct NoiseConfig {
  bool enabled = true;
  DurationNs interval = 25 * kMillisecond;
  double max_cores = 1.2;
  double sigma = 0.3;  ///< random-walk step (cores)
};

struct RunConfig {
  sim::ClusterSpec cluster;
  int threads_per_worker = 0;  ///< 0 = one per core
  /// Per-destination send coalescing (on by default; max_batch_bytes = 0
  /// disables it and restores one transfer per send per destination).
  CommBatcherConfig batch;
  NoiseConfig noise;
  CheckpointConfig checkpoint;
  RetryConfig retry;
  /// Heartbeat failure detection; its seed is folded with `seed` so two runs
  /// differing only in the engine seed also shift their detection latency.
  sim::FailureDetectorConfig heartbeat;
  CrashLogStyle crash_log = CrashLogStyle::kReconciled;
  std::uint64_t seed = 42;

  int effective_threads() const {
    return threads_per_worker > 0 ? threads_per_worker
                                  : cluster.machine.cores;
  }
};

/// Resource names both engines record and reference in blocking events.
namespace run_names {
inline constexpr const char* kCpu = "cpu";
inline constexpr const char* kNetwork = "network";
inline constexpr const char* kRetry = "Retry";
inline constexpr const char* kRecovery = "Recovery";
}  // namespace run_names

}  // namespace g10::engine
