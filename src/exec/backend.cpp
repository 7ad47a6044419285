#include "exec/backend.hpp"

#include <string>

#include "support/check.hpp"

namespace hpfc::exec {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Seq:
      return "seq";
    case BackendKind::Thread:
      return "thread";
    case BackendKind::Proc:
      return "proc";
  }
  return "?";
}

std::optional<BackendKind> parse_backend_kind(std::string_view name) {
  if (name == "seq") return BackendKind::Seq;
  if (name == "thread") return BackendKind::Thread;
  if (name == "proc") return BackendKind::Proc;
  return std::nullopt;
}

StepPool::StepPool(int ranks, int threads) : ranks_(ranks) {
  HPFC_ASSERT_MSG(ranks > 0, "a pool needs at least one rank");
  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (hardware <= 0) hardware = 1;
  if (threads <= 0) threads = hardware;
  threads_ = std::min(std::max(threads, 1), ranks);
  errors_.resize(static_cast<std::size_t>(threads_));
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int w = 0; w < threads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

StepPool::~StepPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void StepPool::run(const RankFn& fn) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    pending_ = threads_;
    ++generation_;
  }
  work_ready_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    step_done_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
  }
  // Rank work may throw (HPFC_ASSERT throws InternalError): rethrow the
  // lowest-indexed worker's failure on the controlling thread.
  for (auto& error : errors_) {
    if (error == nullptr) continue;
    const std::exception_ptr first = error;
    for (auto& e : errors_) e = nullptr;
    std::rethrow_exception(first);
  }
}

void StepPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  while (true) {
    const RankFn* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
    }
    try {
      for (int r = worker; r < ranks_; r += threads_) (*fn)(r);
    } catch (...) {
      // Slot is worker-owned during a run; the barrier publishes it.
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) step_done_.notify_one();
    }
  }
}

Backend::Backend(int ranks) : ranks_(ranks) {
  HPFC_ASSERT_MSG(ranks > 0, "a machine needs at least one rank");
}

Backend::~Backend() = default;

namespace {

/// The in-process engine behind BackendKind::Seq and BackendKind::Thread.
/// A Seq step runs the ranks in turn on the calling thread; a Thread step
/// runs them on a StepPool (one persistent worker per rank, or
/// min(threads, ranks) striped workers). The runtime's remap rounds copy
/// rank to rank here, building no messages (runtime/round.hpp).
class InProcessBackend final : public Backend {
 public:
  InProcessBackend(BackendKind kind, int ranks, int threads)
      : Backend(ranks), kind_(kind) {
    if (kind == BackendKind::Thread)
      pool_ = std::make_unique<StepPool>(ranks, threads);
  }

  [[nodiscard]] BackendKind kind() const override { return kind_; }
  [[nodiscard]] int workers() const override {
    return pool_ != nullptr ? pool_->threads() : 1;
  }

  void step(const RankFn& fn) override {
    if (pool_ != nullptr) {
      pool_->run(fn);
      return;
    }
    for (int r = 0; r < ranks_; ++r) fn(r);
  }

 private:
  BackendKind kind_;
  std::unique_ptr<StepPool> pool_;  ///< Thread only; null for Seq
};

}  // namespace

std::unique_ptr<Backend> make_proc_backend(int ranks, ProcConfig config);

std::unique_ptr<Backend> make_backend(BackendKind kind, int ranks,
                                      int threads, ProcConfig proc) {
  switch (kind) {
    case BackendKind::Seq:
    case BackendKind::Thread:
      return std::make_unique<InProcessBackend>(kind, ranks, threads);
    case BackendKind::Proc:
      return make_proc_backend(ranks, proc);
  }
  HPFC_ASSERT_MSG(false, "unknown backend kind");
  return nullptr;
}

}  // namespace hpfc::exec
