#pragma once
// Runtime lock-order checking ("lockdep") and the rank-ordered mutex
// wrappers the mutex-bearing subsystems use.
//
// The static pass (tools/lint imp_audit) proves the *visible* lock nesting
// acyclic; this layer catches the orders the parser cannot see — locks
// taken through callbacks, virtual calls, or data-dependent paths — by
// watching every acquisition at runtime when IMPECCABLE_CHECKS is on.
//
// Model:
//  * Every OrderedMutex carries a static integer rank (a lockrank:: tag
//    type). Ranks encode the global order: a thread may only acquire a
//    mutex whose rank is >= every rank it already holds. Acquiring a
//    *lower* rank while holding a higher one aborts with both backtraces.
//  * Equal ranks (sharded / per-instance mutexes such as the pool's
//    per-worker queue locks) are ordered by first use: the first time the
//    process nests instance A under instance B the directed pair (B -> A)
//    is recorded with its backtrace; a later (A -> B) nesting aborts,
//    printing the recorded establishment stack plus both current stacks.
//  * Re-locking an instance already held by the thread aborts (std::mutex
//    self-deadlock).
//  * The violation check runs BEFORE the underlying lock() call, so an
//    inversion aborts loudly instead of deadlocking quietly.
//
// Zero-overhead contract: OrderedMutex<Tag> is layout-identical to
// std::mutex in every build (enforced by a static_assert below and a test);
// with IMPECCABLE_CHECKS off the wrappers compile to bare forwarding and
// lockdep.cpp's bookkeeping is never called. The gate is code-only, like
// checks.hpp: defining IMPECCABLE_CHECKS in one TU never changes layout.
//
// Rank table (impeccable::common::lockrank): the registry below is the
// project's documented lock DAG. Lower rank = outer lock. Gaps are left so
// new locks slot in without renumbering. See DESIGN.md "Concurrency audit".

#include <mutex>
#include <shared_mutex>

namespace impeccable::common {

namespace lockdep {

/// Record an acquisition of `mtx` (rank `rank`, diagnostic name `name`) by
/// the current thread, aborting on rank inversion, first-use-order
/// inversion, or self-relock. Call BEFORE the underlying lock succeeds.
void on_acquire(int rank, const char* name, const void* mtx);

/// Like on_acquire but for try_lock-style acquisitions that already
/// succeeded: pushes without order checking (a successful try_lock cannot
/// have blocked, so it cannot deadlock — but it still orders later locks).
void on_try_acquire(int rank, const char* name, const void* mtx);

/// Pop `mtx` from the current thread's held set. Call after the underlying
/// unlock.
void on_release(const void* mtx);

/// Number of locks the current thread holds (test hook).
std::size_t held_count();

/// Forget every recorded first-use pair order (test hook, e.g. between
/// scenarios that legitimately use opposite shard orders).
void reset();

/// RAII: suspend lockdep on this thread (for tests that deliberately build
/// a bad order to exercise something else, or teardown paths).
class Bypass {
 public:
  Bypass();
  ~Bypass();
  Bypass(const Bypass&) = delete;
  Bypass& operator=(const Bypass&) = delete;
};

}  // namespace lockdep

/// The project lock DAG. Lower rank = acquired first (outer). A tag is an
/// empty type so it costs nothing inside the mutex wrapper.
namespace lockrank {

// clang-format off
struct EnginePost    { static constexpr int value = 40; static constexpr const char* name = "engine.post"; };     ///< rct AppManager::post_mutex_
struct EngineState   { static constexpr int value = 41; static constexpr const char* name = "engine.state"; };    ///< rct AppManager::mutex_
struct RaptorOverlay { static constexpr int value = 45; static constexpr const char* name = "raptor.overlay"; };  ///< rct RaptorBackend::mu_
struct ServeRegistry { static constexpr int value = 50; static constexpr const char* name = "serve.registry"; };  ///< serve InferenceServer::registry_mu_
struct ServeTarget   { static constexpr int value = 51; static constexpr const char* name = "serve.target"; };    ///< serve Target::mu (one per target)
struct CacheShard    { static constexpr int value = 55; static constexpr const char* name = "serve.cache_shard"; };///< serve ShardedScoreCache shards
struct PoolSleep     { static constexpr int value = 60; static constexpr const char* name = "pool.sleep"; };      ///< pool sleep_mu_
struct PoolGlobal    { static constexpr int value = 61; static constexpr const char* name = "pool.global"; };     ///< pool global overflow queue
struct PoolWorker    { static constexpr int value = 62; static constexpr const char* name = "pool.worker"; };     ///< pool per-worker deques
struct PoolPfor      { static constexpr int value = 65; static constexpr const char* name = "pool.pfor"; };       ///< pool parallel_for state
struct PoolIdle      { static constexpr int value = 66; static constexpr const char* name = "pool.idle"; };       ///< pool wait_idle
struct ObsRegistry   { static constexpr int value = 80; static constexpr const char* name = "obs.registry"; };    ///< obs Recorder::registry_mu_
struct ObsThread     { static constexpr int value = 81; static constexpr const char* name = "obs.thread"; };      ///< obs Recorder::ThreadState::mu
// clang-format on

}  // namespace lockrank

/// std::mutex with a static lockdep rank. BasicLockable (+ try_lock), so
/// std::lock_guard / std::unique_lock CTAD works unchanged. Condition
/// variables on an OrderedMutex use std::condition_variable_any (its
/// unlock/relock drives on_release/on_acquire through these methods).
template <typename Tag>
class OrderedMutex {
 public:
  void lock() {
#ifdef IMPECCABLE_CHECKS
    lockdep::on_acquire(Tag::value, Tag::name, this);
#endif
    mu_.lock();
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
#ifdef IMPECCABLE_CHECKS
    lockdep::on_try_acquire(Tag::value, Tag::name, this);
#endif
    return true;
  }
  void unlock() {
    mu_.unlock();
#ifdef IMPECCABLE_CHECKS
    lockdep::on_release(this);
#endif
  }

 private:
  std::mutex mu_;
};

/// std::shared_mutex with a static lockdep rank. Shared acquisitions order
/// exactly like exclusive ones (a reader blocked behind a writer deadlocks
/// the same way), so both paths check.
template <typename Tag>
class OrderedSharedMutex {
 public:
  void lock() {
#ifdef IMPECCABLE_CHECKS
    lockdep::on_acquire(Tag::value, Tag::name, this);
#endif
    mu_.lock();
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
#ifdef IMPECCABLE_CHECKS
    lockdep::on_try_acquire(Tag::value, Tag::name, this);
#endif
    return true;
  }
  void unlock() {
    mu_.unlock();
#ifdef IMPECCABLE_CHECKS
    lockdep::on_release(this);
#endif
  }
  void lock_shared() {
#ifdef IMPECCABLE_CHECKS
    lockdep::on_acquire(Tag::value, Tag::name, this);
#endif
    mu_.lock_shared();
  }
  bool try_lock_shared() {
    if (!mu_.try_lock_shared()) return false;
#ifdef IMPECCABLE_CHECKS
    lockdep::on_try_acquire(Tag::value, Tag::name, this);
#endif
    return true;
  }
  void unlock_shared() {
    mu_.unlock_shared();
#ifdef IMPECCABLE_CHECKS
    lockdep::on_release(this);
#endif
  }

 private:
  std::shared_mutex mu_;
};

// The zero-overhead contract: the wrapper IS the wrapped mutex, in every
// build mode. Lockdep state lives in a side table keyed by address.
static_assert(sizeof(OrderedMutex<lockrank::PoolGlobal>) == sizeof(std::mutex),
              "OrderedMutex must add no per-instance state");
static_assert(sizeof(OrderedSharedMutex<lockrank::ServeRegistry>) ==
                  sizeof(std::shared_mutex),
              "OrderedSharedMutex must add no per-instance state");

}  // namespace impeccable::common
