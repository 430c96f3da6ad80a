#include "engine/run_skeleton.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace g10::engine {

namespace {

using trace::PathRef;

// Seed offset for the fault injector's forked RNG stream: fault decisions
// must not perturb the engine's own draw sequence.
constexpr std::uint64_t kFaultSeedSalt = 0x9e3779b97f4a7c15ULL;

/// Phase types and resources both engines emit, interned once per process.
/// "Recovery" names both a phase type and a blocking resource.
struct RunSymbols {
  trace::Symbol job, load_graph, load_worker, execute, checkpoint,
      checkpoint_worker, recovery, recovery_worker, store_results,
      store_worker, cpu, network;
};

const RunSymbols& run_symbols() {
  static const RunSymbols symbols = [] {
    auto& table = trace::SymbolTable::global();
    RunSymbols s;
    s.job = table.intern("Job");
    s.load_graph = table.intern("LoadGraph");
    s.load_worker = table.intern("LoadWorker");
    s.execute = table.intern("Execute");
    s.checkpoint = table.intern("Checkpoint");
    s.checkpoint_worker = table.intern("CheckpointWorker");
    s.recovery = table.intern(run_names::kRecovery);
    s.recovery_worker = table.intern("RecoveryWorker");
    s.store_results = table.intern("StoreResults");
    s.store_worker = table.intern("StoreWorker");
    s.cpu = table.intern(run_names::kCpu);
    s.network = table.intern(run_names::kNetwork);
    return s;
  }();
  return symbols;
}

}  // namespace

TimeNs nominal_horizon(const RunConfig& cfg, const graph::Graph& g,
                       const IoCosts& io, int max_steps,
                       double step_vertex_work, double step_edge_work,
                       double step_seconds) {
  const double n = static_cast<double>(g.vertex_count());
  const double m = static_cast<double>(g.edge_count());
  const double cluster_rate = static_cast<double>(cfg.cluster.machine_count) *
                              static_cast<double>(cfg.cluster.machine.cores) *
                              cfg.cluster.machine.core_work_per_sec;
  const int steps = std::min(max_steps, 64);
  const double step_work = n * step_vertex_work + m * step_edge_work;
  const double total_work = m * io.work_per_load_edge +
                            n * io.work_per_store_vertex +
                            static_cast<double>(steps) * step_work;
  const double seconds = total_work / cluster_rate +
                         static_cast<double>(steps) * step_seconds;
  return std::max<TimeNs>(
      kMillisecond,
      static_cast<TimeNs>(seconds * static_cast<double>(kSecond)));
}

RunSkeleton::RunSkeleton(const RunConfig& cfg, const IoCosts& io,
                         trace::Symbol step_type)
    : rng_(cfg.seed),
      faults_(cfg.cluster.faults, cfg.seed ^ kFaultSeedSalt),
      workers_(cfg.cluster.machine_count),
      threads_(cfg.effective_threads()),
      run_cfg_(cfg),
      io_(io),
      job_path_(PathRef{}.child(run_symbols().job, 0)),
      exec_path_(job_path_.child(run_symbols().execute, 0)),
      step_type_(step_type) {
  cfg.cluster.validate();
  G10_CHECK_MSG(threads_ <= cfg.cluster.machine.cores,
                "threads per worker must not exceed cores");
  G10_CHECK_MSG(cfg.checkpoint.interval_steps > 0,
                "checkpoint interval must be positive");
  G10_CHECK(cfg.retry.max_attempts >= 0);
  machines_.resize(static_cast<std::size_t>(workers_));
  for (auto& machine : machines_) {
    machine.nic = std::make_unique<sim::FluidQueue>(
        cfg.cluster.machine.nic_bytes_per_sec());
    machine.cpu = std::make_unique<sim::UsageRecorder>(
        run_names::kCpu, static_cast<double>(cfg.cluster.machine.cores));
  }
}

trace::RunArtifacts RunSkeleton::execute(TimeNs horizon) {
  if (!faults_.empty()) {
    faults_.resolve(horizon);
    checkpointing_ = faults_.has_kind(sim::FaultKind::kCrash);
  }
  sim::FailureDetectorConfig heartbeat = run_cfg_.heartbeat;
  heartbeat.seed ^= run_cfg_.seed;
  detector_ = sim::FailureDetector(heartbeat, &faults_);
  sim::ReliableChannelConfig channel;
  channel.timeout_seconds = run_cfg_.retry.timeout_seconds;
  channel.backoff = run_cfg_.retry.backoff;
  channel.jitter = run_cfg_.retry.jitter;
  channel.max_attempts = std::max(1, run_cfg_.retry.max_attempts);
  channel_ = sim::ReliableChannel(channel, &faults_, workers_);
  batcher_ = CommBatcher(run_cfg_.batch, workers_);
  dead_.assign(static_cast<std::size_t>(workers_), 0);
  emit_load(load_graph());
  sim_.run();
  G10_CHECK_MSG(execute_finished_, "simulation ended before the job finished");

  trace::RunArtifacts artifacts;
  artifacts.makespan = makespan_;
  artifacts.vertex_values = std::move(value_);
  comm_.batch_flushes =
      static_cast<std::int64_t>(batcher_.stats().total_flushes());
  artifacts.comm = std::move(comm_);
  artifacts.phase_events = log_.take_phase_events();
  artifacts.blocking_events = log_.take_blocking_events();
  const auto& machine_spec = run_cfg_.cluster.machine;
  for (int w = 0; w < workers_; ++w) {
    auto& machine = machines_[static_cast<std::size_t>(w)];
    trace::GroundTruthSeries cpu;
    cpu.resource = run_symbols().cpu;
    cpu.machine = w;
    cpu.capacity = static_cast<double>(machine_spec.cores);
    cpu.series = StepFunction::clamped_sum(machine.cpu->series(), machine.noise,
                                           cpu.capacity);
    artifacts.ground_truth.push_back(std::move(cpu));

    trace::GroundTruthSeries net;
    net.resource = run_symbols().network;
    net.machine = w;
    net.capacity = machine_spec.nic_bytes_per_sec();
    net.series = machine.nic->finalize_rate_series(makespan_);
    artifacts.ground_truth.push_back(std::move(net));
  }
  return artifacts;
}

void RunSkeleton::emit_load(const std::vector<double>& edges) {
  const RunSymbols& sym = run_symbols();
  const PathRef load = job_path_.child(sym.load_graph, 0);
  log_.begin(job_path_, 0, trace::kGlobalMachine);
  log_.begin(load, 0, trace::kGlobalMachine);
  const double cores = static_cast<double>(run_cfg_.cluster.machine.cores);
  TimeNs load_end = 0;
  for (int w = 0; w < workers_; ++w) {
    const double worker_edges = edges[static_cast<std::size_t>(w)];
    const DurationNs duration =
        ns_for_work(worker_edges * io_.work_per_load_edge / cores *
                    jitter(0.05) / faults_.speed_factor(w, 0));
    nic(w).enqueue(0, worker_edges * io_.bytes_per_load_edge);
    cpu(w).add(0, cores);
    cpu(w).add(duration, -cores);
    const PathRef worker_load = load.child(sym.load_worker, w);
    log_.begin(worker_load, 0, w);
    const TimeNs done = std::max(duration, nic(w).time_empty(duration));
    log_.end(worker_load, done, w);
    load_end = std::max(load_end, done);
  }
  log_.end(load, load_end, trace::kGlobalMachine);
  log_.begin(exec_path_, load_end, trace::kGlobalMachine);
  if (run_cfg_.noise.enabled) {
    for (int w = 0; w < workers_; ++w) {
      sim_.schedule_at(0, [this, w] { noise_tick(w); });
    }
  }
  schedule_epoch(load_end, [this] { start_step(sim_.now()); });
  if (checkpointing_) save_state();
  schedule_next_crash(load_end);
  schedule_nic_changes();
}

void RunSkeleton::noise_tick(int w) {
  if (execute_finished_) return;
  auto& machine = machines_[static_cast<std::size_t>(w)];
  machine.noise_level = std::clamp(
      machine.noise_level + rng_.next_normal(0.0, run_cfg_.noise.sigma), 0.0,
      run_cfg_.noise.max_cores);
  // The walk keeps advancing (fixed RNG draw schedule) but a crashed
  // machine reports zero background CPU until it rejoins.
  machine.noise.set(sim_.now(), dead(w) ? 0.0 : machine.noise_level);
  sim_.schedule_after(run_cfg_.noise.interval, [this, w] { noise_tick(w); });
}

void RunSkeleton::schedule_nic_changes() {
  if (faults_.empty()) return;
  const double base_rate = run_cfg_.cluster.machine.nic_bytes_per_sec();
  for (const TimeNs t : faults_.nic_change_times()) {
    // Boundaries may predate the point where scheduling happens (a window
    // opening at t=0 while the graph is still loading): apply them now.
    sim_.schedule_at(std::max(t, sim_.now()), [this, base_rate] {
      if (execute_finished_) return;
      const TimeNs now = sim_.now();
      for (int w = 0; w < workers_; ++w) {
        nic(w).set_rate(now, base_rate * faults_.nic_factor(w, now));
      }
    });
  }
}

void RunSkeleton::checkpoint_or_continue(TimeNs t, int steps_done) {
  ++step_instance_;
  if (checkpointing_ &&
      steps_done % run_cfg_.checkpoint.interval_steps == 0) {
    const TimeNs cp_end = write_checkpoint(t);
    schedule_epoch(cp_end, [this] {
      // A crash inside the write window leaves the checkpoint to be aborted
      // by the recovery path instead of completed here.
      if (any_dead_) return;
      complete_checkpoint();
      start_step(sim_.now());
    });
    return;
  }
  start_step(t);
}

double RunSkeleton::drain_batches(int w, FlushCause cause) {
  batcher_.take_all(w, cause, flush_scratch_);
  double total = 0.0;
  for (const auto& f : flush_scratch_) total += f.bytes;
  return total;
}

TimeNs RunSkeleton::transmit(int w, int dst, double bytes, TimeNs now) {
  if (channel_.trivial()) {
    nic(w).enqueue(now, bytes);
    return now;
  }
  const auto plan = channel_.plan_send(w, dst, now);
  ++comm_.channel_plans;
  for (const auto& attempt : plan.attempts) {
    if (attempt.at <= now) {
      nic(w).enqueue(now, bytes);
    } else {
      schedule_epoch(attempt.at, [this, w, bytes] {
        if (dead(w)) return;
        nic(w).enqueue(sim_.now(), bytes);
      });
    }
  }
  return plan.complete;
}

void RunSkeleton::finish_execute(TimeNs t) {
  const RunSymbols& sym = run_symbols();
  log_.end(exec_path_, t, trace::kGlobalMachine);
  const PathRef store = job_path_.child(sym.store_results, 0);
  log_.begin(store, t, trace::kGlobalMachine);
  const double cores = static_cast<double>(run_cfg_.cluster.machine.cores);
  TimeNs store_end = t;
  for (int w = 0; w < workers_; ++w) {
    const DurationNs duration = ns_for_work(
        worker_vertex_count(w) * io_.work_per_store_vertex / cores *
        jitter(0.05) / faults_.speed_factor(w, t));
    cpu(w).add(t, cores);
    cpu(w).add(t + duration, -cores);
    const PathRef worker_store = store.child(sym.store_worker, w);
    log_.begin(worker_store, t, w);
    log_.end(worker_store, t + duration, w);
    store_end = std::max(store_end, t + duration);
  }
  log_.end(store, store_end, trace::kGlobalMachine);
  log_.end(job_path_, store_end, trace::kGlobalMachine);
  makespan_ = store_end;
  execute_finished_ = true;
}

TimeNs RunSkeleton::write_checkpoint(TimeNs t) {
  // Open the checkpoint phases now; closure is deferred until the write
  // completes (complete_checkpoint), so a crash landing inside the window
  // truncates them — the log shows an interrupted checkpoint, and the
  // snapshot falls back to the previous complete one.
  const RunSymbols& sym = run_symbols();
  checkpoint_path_ = exec_path_.child(sym.checkpoint, checkpoint_seq_++);
  log_.begin(checkpoint_path_, t, trace::kGlobalMachine);
  checkpoint_wend_.assign(static_cast<std::size_t>(workers_), t);
  TimeNs cp_end = t;
  for (int w = 0; w < workers_; ++w) {
    const DurationNs duration =
        ns_from_seconds(run_cfg_.checkpoint.base_seconds) +
        ns_for_work(worker_vertex_count(w) *
                    run_cfg_.checkpoint.work_per_vertex);
    const TimeNs wend = t + duration;
    checkpoint_wend_[static_cast<std::size_t>(w)] = wend;
    log_.begin(checkpoint_path_.child(sym.checkpoint_worker, w), t, w);
    // Serialization is single-threaded per worker.
    cpu(w).add(t, 1.0);
    cp_end = std::max(cp_end, wend);
  }
  checkpoint_active_ = true;
  return cp_end;
}

void RunSkeleton::complete_checkpoint() {
  TimeNs cp_end = 0;
  for (int w = 0; w < workers_; ++w) {
    const TimeNs wend = checkpoint_wend_[static_cast<std::size_t>(w)];
    log_.end(checkpoint_path_.child(run_symbols().checkpoint_worker, w), wend,
             w);
    cpu(w).add(wend, -1.0);
    cp_end = std::max(cp_end, wend);
  }
  log_.end(checkpoint_path_, cp_end, trace::kGlobalMachine);
  checkpoint_active_ = false;
  save_state();
}

void RunSkeleton::abort_checkpoint(int victim, TimeNs now) {
  // Survivors stop writing when the failure is detected (`now`); the victim
  // stopped at the crash instant itself.
  const bool truncated = run_cfg_.crash_log == CrashLogStyle::kTruncated;
  TimeNs cp_close = 0;
  for (int w = 0; w < workers_; ++w) {
    const PathRef worker_cp =
        checkpoint_path_.child(run_symbols().checkpoint_worker, w);
    const TimeNs wend = checkpoint_wend_[static_cast<std::size_t>(w)];
    const TimeNs stop =
        w == victim ? std::min(crash_time_, wend) : std::min(now, wend);
    if (w == victim && truncated) {
      log_.abandon(worker_cp);
    } else {
      log_.end(worker_cp, stop, w);
      cp_close = std::max(cp_close, stop);
    }
    cpu(w).add(stop, -1.0);
  }
  if (truncated) {
    log_.abandon(checkpoint_path_);
  } else {
    log_.end(checkpoint_path_, cp_close, trace::kGlobalMachine);
  }
  checkpoint_active_ = false;
  // The snapshot was not saved: recovery falls back to the previous one.
}

void RunSkeleton::schedule_next_crash(TimeNs floor) {
  if (!checkpointing_) return;
  const auto t = faults_.next_crash_time();
  if (!t) return;
  // Not epoch-guarded: a crash belongs to the run, not to one execution
  // attempt. A crash falling inside a recovery window fires right after it.
  sim_.schedule_at(std::max(*t, floor), [this] { fire_crash(); });
}

void RunSkeleton::close_or_abandon(const PathRef& path, bool truncate,
                                   TimeNs now, trace::MachineId machine) {
  const auto begin = log_.open_begin(path);
  if (!begin) return;
  if (truncate) {
    log_.abandon(path);
  } else {
    // Some phase begins are logged ahead of simulated time (WorkerCompute
    // opens at t+prep); never end a phase before its begin.
    log_.end(path, std::max(now, *begin), machine);
  }
}

void RunSkeleton::teardown_worker(int w, TimeNs now, bool truncate) {
  abort_worker_step(w, now, truncate);
  // In-flight traffic of the aborted step is gone — both the NIC queue and
  // anything still sitting in the coalescing buffers; the re-execution
  // regenerates it.
  nic(w).clear(now);
  if (batcher_.enabled()) batcher_.clear(w);
}

void RunSkeleton::fire_crash() {
  if (execute_finished_) return;
  // A second failure while one is still being handled is picked up by
  // schedule_next_crash() after the in-flight recovery completes.
  if (any_dead_) return;
  const TimeNs now = sim_.now();
  const auto victim = faults_.take_crash(now);
  if (!victim) return;
  const int v = *victim;
  crash_victim_ = v;
  crash_time_ = now;
  any_dead_ = true;
  dead_[static_cast<std::size_t>(v)] = 1;
  channel_.set_dead(v, true);

  // The victim dies silently: its compute stops, its queued traffic is
  // gone, its open phases close (log shipper flush) or truncate. Survivors
  // keep running — their sends to the victim fail deterministically and
  // give up after the retry budget — until the failure detector times out
  // the victim's heartbeats; nobody here consults the injector about the
  // future.
  teardown_worker(v, now, run_cfg_.crash_log == CrashLogStyle::kTruncated);
  sim_.schedule_at(detector_.detect_time(v, now),
                   [this] { detect_and_recover(); });
}

void RunSkeleton::detect_and_recover() {
  const TimeNs now = sim_.now();  // heartbeat-timeout detection instant
  const int victim = crash_victim_;
  // A new epoch invalidates every event of the aborted execution attempt.
  ++epoch_;
  for (int w = 0; w < workers_; ++w) {
    if (w != victim) teardown_worker(w, now, false);
  }
  const TimeNs step_close = close_aborted_step(
      now, run_cfg_.crash_log == CrashLogStyle::kTruncated);
  ++step_instance_;
  if (checkpoint_active_) abort_checkpoint(victim, now);

  // Checkpoint-restart recovery: the master restarts the victim and every
  // worker reloads the last complete snapshot; the victim may reload more
  // (GAS re-ingests its edge partition). The whole window is dead time,
  // reported as "Recovery" blocking events.
  const RunSymbols& sym = run_symbols();
  const PathRef rec = exec_path_.child(sym.recovery, recovery_seq_++);
  log_.begin(rec, now, trace::kGlobalMachine);
  const DurationNs restart =
      ns_from_seconds(run_cfg_.checkpoint.restart_seconds);
  const double cores = static_cast<double>(run_cfg_.cluster.machine.cores);
  TimeNs rec_end = now + restart;
  for (int w = 0; w < workers_; ++w) {
    double reload_work =
        worker_vertex_count(w) * run_cfg_.checkpoint.reload_work_per_vertex;
    if (w == victim) reload_work += victim_reload_work(w);
    const TimeNs wend = now + restart + ns_for_work(reload_work / cores);
    const PathRef worker_rec = rec.child(sym.recovery_worker, w);
    log_.begin(worker_rec, now, w);
    log_.end(worker_rec, wend, w);
    log_.block(sym.recovery, worker_rec, now, wend, w);
    rec_end = std::max(rec_end, wend);
  }
  log_.end(rec, rec_end, trace::kGlobalMachine);
  restore_state();
  dead_[static_cast<std::size_t>(victim)] = 0;
  channel_.set_dead(victim, false);
  any_dead_ = false;
  crash_victim_ = -1;
  // Resume after both the recovery window and the last logged END of the
  // aborted step, so repeated step instances never overlap.
  const TimeNs resume = std::max(rec_end, step_close);
  schedule_epoch(resume, [this] { start_step(sim_.now()); });
  schedule_next_crash(resume);
}

}  // namespace g10::engine
