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

Backend::Backend(int ranks, net::CostModel cost) : ranks_(ranks), cost_(cost) {
  HPFC_ASSERT_MSG(ranks > 0, "a machine needs at least one rank");
}

Backend::~Backend() = default;

namespace {

/// The in-process engine behind BackendKind::Seq and BackendKind::Thread.
/// A Seq step runs the ranks in turn on the calling thread; a Thread step
/// runs them on a StepPool (one persistent worker per rank, or
/// min(threads, ranks) striped workers). Either way an exchange is
/// net::route_superstep plus net::account_superstep on the controlling
/// thread, so both kinds deliver the same inboxes and NetStats. The
/// runtime's remap rounds do not exchange here: they copy rank to rank
/// in one step and charge Backend::account_round (runtime/round.hpp).
class InProcessBackend final : public Backend {
 public:
  InProcessBackend(BackendKind kind, int ranks, net::CostModel cost,
                   int threads)
      : Backend(ranks, cost), kind_(kind) {
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

  std::vector<std::vector<net::Message>> exchange(
      std::vector<std::vector<net::Message>> outboxes) override {
    auto inboxes = net::route_superstep(std::move(outboxes), ranks_);
    net::account_superstep(stats_, cost_, inboxes);
    return inboxes;
  }

 private:
  BackendKind kind_;
  std::unique_ptr<StepPool> pool_;  ///< Thread only; null for Seq
};

}  // namespace

std::unique_ptr<Backend> make_proc_backend(int ranks, net::CostModel cost,
                                           ProcConfig config);

std::unique_ptr<Backend> make_backend(BackendKind kind, int ranks,
                                      net::CostModel cost, int threads,
                                      ProcConfig proc) {
  switch (kind) {
    case BackendKind::Seq:
    case BackendKind::Thread:
      return std::make_unique<InProcessBackend>(kind, ranks, cost, threads);
    case BackendKind::Proc:
      return make_proc_backend(ranks, cost, proc);
  }
  HPFC_ASSERT_MSG(false, "unknown backend kind");
  return nullptr;
}

}  // namespace hpfc::exec
