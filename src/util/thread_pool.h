#ifndef LBR_UTIL_THREAD_POOL_H_
#define LBR_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/exec_context.h"

namespace lbr {

/// Fixed-size worker pool built around one blocking collective:
/// `ParallelFor(begin, end, grain, fn)`.
///
/// Design (DESIGN.md §5):
///  - A pool of size N owns N-1 background workers; the calling thread is
///    the N-th execution slot and participates in every collective, so
///    `ThreadPool(1)` degenerates to plain inline execution with zero
///    synchronization.
///  - Each slot owns a private ExecContext scratch arena whose buffer
///    capacity survives across collectives — the parallel fold/unfold hot
///    path stays off the heap once warmed, exactly like the single-threaded
///    engine arena.
///  - Chunks of `grain` indexes are claimed from an atomic cursor
///    (work-stealing-lite): slow chunks do not stall fast workers, and the
///    caller keeps draining chunks instead of idling.
///  - Collectives never nest. A ParallelFor issued from inside a chunk (or
///    while another thread holds the pool) runs inline on the issuing
///    thread — this is what lets Engine::ExecuteBatch fan whole queries
///    across the pool while the per-query prune/fold code below it is
///    itself pool-aware without deadlocking.
///
/// Exceptions thrown by `fn` are captured (first one wins), the remaining
/// range is abandoned, and the exception is rethrown on the calling thread
/// after all workers have quiesced.
class ThreadPool {
 public:
  /// `num_threads` is the total parallelism including the calling thread;
  /// values < 1 are clamped to 1 (no workers, inline execution).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareThreads();

  /// True while the current thread is executing inside a ParallelFor chunk
  /// of any pool. Used to force nested collectives inline.
  static bool InParallelRegion();

  /// Execution slots = workers + the calling thread.
  int num_slots() const { return num_workers() + 1; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Chunk body: [begin, end) of the iteration space, the slot's scratch
  /// arena, and the slot index (stable per worker; num_workers() for the
  /// calling thread). Slot indexes let callers keep per-slot state (e.g.
  /// one Engine per worker in a batch driver).
  using ChunkFn =
      std::function<void(uint32_t begin, uint32_t end, ExecContext* ctx,
                         int slot)>;

  /// Runs `fn` over [begin, end) in chunks of `grain` (clamped to >= 1).
  /// Blocks until the whole range is processed. Runs inline (single chunk,
  /// caller's thread) when the pool has no workers, the range fits in one
  /// chunk, or the call is nested inside another collective. `caller_ctx`,
  /// when given, is the arena handed to chunks run on the calling thread
  /// (inline or as the caller slot); null falls back to the pool's own
  /// caller-slot arena (or none when inline).
  void ParallelFor(uint32_t begin, uint32_t end, uint32_t grain,
                   const ChunkFn& fn, ExecContext* caller_ctx = nullptr);

 private:
  void WorkerLoop(int slot);
  /// Claims and runs chunks of the active job until the range is drained.
  void RunChunks(const ChunkFn& fn, ExecContext* ctx, int slot);

  std::vector<std::thread> workers_;
  /// One arena per slot: [0, num_workers) for workers, num_workers() for
  /// the calling thread (used when the caller passes no arena of its own).
  std::vector<std::unique_ptr<ExecContext>> contexts_;

  /// Serializes collectives from distinct calling threads; a pool runs one
  /// ParallelFor at a time by design.
  std::mutex collective_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: new job or shutdown
  std::condition_variable done_cv_;  // caller: all workers quiesced
  uint64_t job_epoch_ = 0;           // bumped per ParallelFor
  int workers_remaining_ = 0;        // workers yet to finish the active job
  bool stop_ = false;
  const ChunkFn* job_fn_ = nullptr;
  std::exception_ptr job_error_;

  /// Chunk cursor. 64-bit so fetch_add can overshoot `job_end_` by
  /// num_slots * grain without wrapping.
  std::atomic<uint64_t> next_{0};
  uint64_t job_end_ = 0;
  uint32_t job_grain_ = 1;
};

}  // namespace lbr

#endif  // LBR_UTIL_THREAD_POOL_H_
