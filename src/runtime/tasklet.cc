#include "runtime/tasklet.h"

#include <algorithm>

#include "common/logging.h"

namespace heron {
namespace runtime {
namespace {

/// One spin-loop beat that tells the core (not the OS) we are waiting.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause");
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

Result<IdlePolicy> ParseIdlePolicy(std::string_view text) {
  if (text == "condvar-park") return IdlePolicy::kCondvarPark;
  if (text == "adaptive-spin") return IdlePolicy::kAdaptiveSpin;
  if (text == "busy-spin") return IdlePolicy::kBusySpin;
  return Status::InvalidArgument("unknown idle policy: '" + std::string(text) +
                                 "' (condvar-park | adaptive-spin | "
                                 "busy-spin)");
}

const char* IdlePolicyName(IdlePolicy policy) {
  switch (policy) {
    case IdlePolicy::kCondvarPark:
      return "condvar-park";
    case IdlePolicy::kAdaptiveSpin:
      return "adaptive-spin";
    case IdlePolicy::kBusySpin:
      return "busy-spin";
  }
  return "unknown";
}

/// Pool-owned per-tasklet state. `mu` is the drive fence: held for every
/// Drive() of this tasklet and taken once by Retire(), so "retired
/// observed under mu" means "no driver will ever touch the loop again".
class TaskletPool::Handle {
 public:
  Handle(EventLoop* loop, const TaskletOptions& options, const Clock* clock,
         int32_t ord)
      : tasklet(loop, options, clock), ord(ord) {}

  Tasklet tasklet;
  const int32_t ord;  ///< Pool registration ordinal (slice-ring identity).
  Worker* dedicated = nullptr;  ///< kPerLoop: the tasklet's own worker.
  std::mutex mu;
  std::atomic<bool> retired{false};
  bool finished = false;  ///< Loop reached Done(); guarded by mu.
};

/// One scheduling thread (or inline stepper): round-robin drives its
/// member tasklets, idles per the pool policy. A dedicated worker (kPerLoop)
/// has exactly one member and parks on that loop's own latch.
class TaskletPool::Worker {
 public:
  Worker(const Options* options, const Clock* clock, size_t index)
      : options_(options), clock_(clock), index_(index) {}

  void Add(std::shared_ptr<Handle> handle) {
    ipc::Wakeup* member = handle->tasklet.loop()->wakeup();
    if (options_->placement == Placement::kPerLoop) {
      latch_ = member;
    } else {
      member->Chain(&wakeup_);
    }
    {
      std::lock_guard<std::mutex> lock(list_mu_);
      members_.push_back(std::move(handle));
    }
    latch_->Notify();
  }

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    latch_->Notify();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// One drive pass over a snapshot of the member list; prunes retired
  /// handles. Returns whether any tasklet progressed.
  bool Pass() {
    scratch_.clear();
    {
      std::lock_guard<std::mutex> lock(list_mu_);
      members_.erase(
          std::remove_if(members_.begin(), members_.end(),
                         [](const std::shared_ptr<Handle>& h) {
                           return h->retired.load(std::memory_order_acquire);
                         }),
          members_.end());
      scratch_ = members_;
    }
    bool did_work = false;
    observability::SliceRing* ring = options_->slice_ring;
    for (const std::shared_ptr<Handle>& handle : scratch_) {
      std::lock_guard<std::mutex> drive(handle->mu);
      if (handle->retired.load(std::memory_order_acquire) || handle->finished) {
        continue;
      }
      if (ring != nullptr) {
        // Timeline slice: only progressing drives are recorded — idle
        // passes happen thousands of times a second and carry no signal.
        const int64_t t0 = clock_->NowNanos();
        if (handle->tasklet.Drive()) {
          ring->Record(static_cast<int32_t>(index_), handle->ord, t0,
                       clock_->NowNanos() - t0);
          did_work = true;
        }
      } else if (handle->tasklet.Drive()) {
        did_work = true;
      }
      if (handle->tasklet.Done()) {
        // Mirror Run()'s exit: the loop's sources closed and drained (or
        // Stop was requested) while pooled — run its shutdown hooks here
        // on the driving thread. Halted loops no-op this.
        handle->tasklet.loop()->Shutdown();
        handle->finished = true;
      }
    }
    return did_work;
  }

  /// Worker wall-time spent inside drive passes (profiling; 0 when off).
  int64_t busy_nanos() const {
    return busy_nanos_.load(std::memory_order_relaxed);
  }
  /// When Run() began, -1 before Start (occupancy denominator).
  int64_t started_nanos() const {
    return started_nanos_.load(std::memory_order_relaxed);
  }

 private:
  void Run() {
    latch_->SetOwnerThread();
    const bool profile = options_->profile;
    started_nanos_.store(clock_->NowNanos(), std::memory_order_relaxed);
    int64_t spin_start = -1;  // -1 = not currently in an idle spin window.
    while (!stop_.load(std::memory_order_acquire)) {
      bool did_work;
      if (profile) {
        const int64_t t0 = clock_->NowNanos();
        did_work = Pass();
        busy_nanos_.fetch_add(
            std::max<int64_t>(clock_->NowNanos() - t0, 0),
            std::memory_order_relaxed);
      } else {
        did_work = Pass();
      }
      if (stop_.load(std::memory_order_acquire)) break;
      if (did_work) {
        spin_start = -1;
        continue;
      }
      // A member latch left pending means work was announced during or
      // after the pass (coalesced away from the worker latch): re-drive
      // instead of parking. Polling also re-arms the latch's forwarding.
      if (PollMembers()) {
        spin_start = -1;
        continue;
      }
      switch (options_->idle_policy) {
        case IdlePolicy::kBusySpin:
          CpuRelax();
          continue;
        case IdlePolicy::kAdaptiveSpin: {
          const int64_t now = clock_->NowNanos();
          if (spin_start < 0) spin_start = now;
          if (now - spin_start < options_->spin_window_nanos) {
            CpuRelax();
            continue;
          }
          break;  // Spin window exhausted: fall through to the park.
        }
        case IdlePolicy::kCondvarPark:
          break;
      }
      Park();
      spin_start = -1;
    }
    // A dedicated worker's latch outlives it: a later thread reusing this
    // id must not inherit the same-thread notify elision.
    latch_->ClearOwnerThread();
  }

  // Every member-loop access below (Poll, deadline reads) happens under
  // the handle's drive mutex with `retired` re-checked: the loop object
  // belongs to the module and may be destroyed any time after Retire()
  // returns, so the fence must cover more than just Drive().
  bool PollMembers() {
    bool pending = false;
    for (const std::shared_ptr<Handle>& handle : scratch_) {
      std::lock_guard<std::mutex> fence(handle->mu);
      if (handle->retired.load(std::memory_order_acquire)) continue;
      if (handle->tasklet.loop()->wakeup()->Poll()) pending = true;
    }
    return pending;
  }

  void Park() {
    // Bound the park by the members' timer/service deadlines, and by the
    // idle backoff when any member has idle workers (their external state —
    // back-pressure flags, pending windows — changes without a notify).
    const int64_t now = clock_->NowNanos();
    int64_t deadline = EventLoop::kNoDeadline;
    for (const std::shared_ptr<Handle>& handle : scratch_) {
      std::lock_guard<std::mutex> fence(handle->mu);
      if (handle->retired.load(std::memory_order_acquire) || handle->finished) {
        continue;
      }
      EventLoop* loop = handle->tasklet.loop();
      deadline = std::min(deadline, loop->NextWakeDeadlineNanos());
      if (loop->has_idle_workers()) {
        deadline = std::min(deadline, now + loop->idle_backoff_nanos());
      }
    }
    int64_t park = options_->max_park_nanos;
    if (deadline != EventLoop::kNoDeadline) {
      park = std::min<int64_t>(park, deadline - now);
    }
    if (park > 0) latch_->WaitFor(park);
  }

  const Options* options_;
  const Clock* clock_;
  size_t index_;

  ipc::Wakeup wakeup_;
  /// What the worker parks on: its own latch, or a dedicated worker's
  /// single member loop latch.
  ipc::Wakeup* latch_ = &wakeup_;
  std::atomic<int64_t> busy_nanos_{0};
  std::atomic<int64_t> started_nanos_{-1};
  std::mutex list_mu_;
  std::vector<std::shared_ptr<Handle>> members_;  ///< Guarded by list_mu_.
  std::vector<std::shared_ptr<Handle>> scratch_;  ///< Worker-thread only.
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

TaskletPool::TaskletPool(const Options& options, const Clock* clock)
    : options_(options), clock_(clock) {
  if (options_.placement == Placement::kPerLoop) return;
  size_t n = options_.workers;
  if (n == 0) {
    n = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>(&options_, clock_, i));
  }
}

TaskletPool::~TaskletPool() { Stop(); }

TaskletPool::Handle* TaskletPool::Add(EventLoop* loop) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const auto ord = static_cast<int32_t>(names_.size());
  auto handle =
      std::make_shared<Handle>(loop, options_.tasklet, clock_, ord);
  Handle* raw = handle.get();
  names_.push_back(loop->name());
  registry_.emplace(raw, handle);
  if (options_.placement == Placement::kPerLoop) {
    // The worker takes the tasklet's ordinal as its index, so each
    // tasklet gets its own timeline track.
    auto worker = std::make_unique<Worker>(&options_, clock_,
                                           static_cast<size_t>(ord));
    handle->dedicated = worker.get();
    worker->Add(std::move(handle));
    if (started_) worker->Start();
    workers_.push_back(std::move(worker));
    return raw;
  }
  const size_t slot =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  workers_[slot]->Add(std::move(handle));
  return raw;
}

void TaskletPool::Retire(Handle* handle) {
  if (handle == nullptr) return;
  // Claim ownership from the registry first: once `retired` flips, the
  // worker prunes its shared_ptrs at the next pass, so without this hold
  // the handle could be freed between the flip and the unchain below.
  // A second Retire of the same pointer finds the registry empty and
  // returns without ever dereferencing (possibly freed) memory.
  std::shared_ptr<Handle> keep;
  std::unique_ptr<Worker> dedicated;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    const auto it = registry_.find(handle);
    if (it == registry_.end()) return;
    keep = std::move(it->second);
    registry_.erase(it);
    if (keep->dedicated != nullptr) {
      const auto wit = std::find_if(
          workers_.begin(), workers_.end(),
          [&keep](const auto& w) { return w.get() == keep->dedicated; });
      dedicated = std::move(*wit);
      workers_.erase(wit);
    }
  }
  if (keep->retired.exchange(true, std::memory_order_acq_rel)) return;
  // Fence: wait out any in-flight Drive(). After this, workers observe
  // `retired` under mu before touching the tasklet, so the loop is ours.
  { std::lock_guard<std::mutex> fence(keep->mu); }
  if (dedicated != nullptr) {
    dedicated->RequestStop();
    dedicated->Join();
  }
  keep->tasklet.loop()->wakeup()->Chain(nullptr);
}

void TaskletPool::Start() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (started_ || options_.placement == Placement::kInline) return;
  started_ = true;
  for (auto& worker : workers_) worker->Start();
}

void TaskletPool::Stop() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (!started_) return;
  started_ = false;
  for (auto& worker : workers_) worker->RequestStop();
  for (auto& worker : workers_) worker->Join();
}

bool TaskletPool::DriveAll() {
  bool did_work = false;
  for (auto& worker : workers_) {
    if (worker->Pass()) did_work = true;
  }
  return did_work;
}

size_t TaskletPool::num_workers() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return workers_.size();
}

TaskletPool::SchedulerStats TaskletPool::CollectStats(int64_t now_nanos) const {
  SchedulerStats stats;
  std::lock_guard<std::mutex> lock(registry_mu_);
  stats.workers = workers_.size();
  for (const auto& worker : workers_) {
    stats.busy_nanos += worker->busy_nanos();
    const int64_t started = worker->started_nanos();
    if (started >= 0 && now_nanos > started) {
      stats.wall_nanos += now_nanos - started;
    }
  }
  for (const auto& [raw, handle] : registry_) {
    // The drive mutex is the established fence: holding it briefly means
    // no Drive() is mutating the tasklet's counters while we read them.
    std::lock_guard<std::mutex> fence(handle->mu);
    ++stats.tasklets;
    stats.slices += handle->tasklet.slices();
    stats.overruns += handle->tasklet.overruns();
    stats.budget_sum += handle->tasklet.budget();
    stats.cost_ewma_sum += handle->tasklet.cost_ewma_nanos();
  }
  return stats;
}

std::vector<std::string> TaskletPool::TaskletNames() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return names_;
}

}  // namespace runtime
}  // namespace heron
