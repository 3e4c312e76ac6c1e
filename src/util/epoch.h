// Copyright 2026 The vfps Authors.
// Epoch-based reclamation for the lock-free subscription-churn path
// (docs/CONCURRENCY.md, "Epoch-based snapshots"). The scheme is the classic
// three-piece design:
//
//   * readers pin the current epoch in a per-reader slot before touching
//     any published snapshot and unpin on exit (EpochManager::PinGuard);
//   * writers publish replacement snapshots with an atomic pointer swap
//     (EpochPtr / EpochSlotArray — the only sanctioned swap primitives,
//     enforced by scripts/check_sync_discipline.sh) and push the superseded
//     version onto an epoch-stamped limbo list (Retire);
//   * a superseded version is destroyed only once every reader slot is
//     either free or pinned at a later epoch than its retirement
//     (TryReclaim), so no reader can still hold a reference.
//
// Memory-ordering contract: every operation on the global epoch, the
// reader slots, and published pointers is seq_cst. The correctness
// argument runs over the single total order S of seq_cst operations: for a
// reader pin P followed (program order) by a snapshot load L, and a writer
// swap W followed by a slot scan C, either C observes P — and the reader's
// epoch blocks reclamation — or C precedes P in S, hence W precedes L and
// the reader observes the post-swap pointer, never the retired version.
// x86 makes the loads free and the pin's RMW one locked instruction; this
// is not a hot-loop cost worth relaxing, and seq_cst keeps the proof
// two lines long.
//
// Lock ranking: the limbo list is guarded by a Mutex at
// LockRank::kEpochReclaim; deleters always run with it released (they may
// touch writer-side state such as the predicate table, whose lock-free
// callers run under LockRank::kChurnWriter < kEpochReclaim).

#ifndef VFPS_UTIL_EPOCH_H_
#define VFPS_UTIL_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "src/util/macros.h"
#include "src/util/sync.h"

namespace vfps {

/// Epoch clock, reader slots, and the limbo list of one churn domain
/// (typically one per ChurnMatcher).
class EpochManager {
 public:
  /// Concurrent reader limit. Pins beyond this spin-wait for a slot to
  /// free up; 64 cache-line-sized slots cost 4 KiB and cover any sane
  /// thread count.
  static constexpr size_t kMaxReaders = 64;

  EpochManager() = default;
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // --- reader side (lock-free) ---------------------------------------------

  /// Claims a reader slot and pins the current epoch in it. Returns the
  /// slot index (stable for the duration of the pin; usable as a scratch
  /// index, see ReaderLocal). Spin-waits when all slots are busy.
  size_t Pin();

  /// Releases the pin taken by Pin(); the slot becomes claimable again.
  void Unpin(size_t slot);

  /// RAII pin for the scope of one read-side operation.
  class PinGuard {
   public:
    explicit PinGuard(EpochManager* manager)
        : manager_(manager), slot_(manager->Pin()) {}
    ~PinGuard() { manager_->Unpin(slot_); }

    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;

    /// The pinned reader slot (dense in [0, kMaxReaders)).
    size_t slot() const { return slot_; }

   private:
    EpochManager* manager_;
    size_t slot_;
  };

  /// True when the calling thread currently holds any epoch pin (on any
  /// manager). TryReclaim refuses under a pin; tests assert the refusal.
  static bool CallerPinned();

  // --- writer side -----------------------------------------------------------

  /// Stamps `deleter` with the current epoch, advances the epoch, and
  /// queues it on the limbo list. The deleter runs from a later
  /// TryReclaim() once every reader pinned at or before the stamped epoch
  /// has unpinned. Callers must have already unlinked the object from all
  /// published pointers (EpochPtr/EpochSlotArray::Publish do this).
  void Retire(std::function<void()> deleter);

  /// Runs the deleters of every limbo entry whose epoch has drained.
  /// Refuses (returns 0) when the calling thread holds a pin — reclaiming
  /// under one's own pin could destroy the snapshot being read. Deleters
  /// run with the limbo lock released. Returns the number reclaimed.
  size_t TryReclaim();

  /// Waits until every reader pinned before the call has unpinned (new
  /// pins may overlap freely). The two-phase reorganizer move publishes
  /// the target-list add, synchronizes, then publishes the source-list
  /// remove: any reader that could miss the subscription in the target
  /// snapshot is guaranteed to still find it in the source snapshot.
  void SynchronizeReaders();

  // --- introspection (vfps_epoch_* gauges) -----------------------------------

  /// Reader slots currently pinned.
  size_t pinned_readers() const;
  /// Limbo entries awaiting reclamation.
  size_t limbo_depth() const;
  /// Deleters run since construction.
  uint64_t reclaimed_total() const { return reclaimed_total_.load(); }
  /// Retire() calls since construction.
  uint64_t retired_total() const { return retired_total_.load(); }
  /// Current epoch value (starts at 1, advances once per Retire /
  /// SynchronizeReaders).
  uint64_t current_epoch() const { return global_epoch_.load(); }

 private:
  /// Sentinel stored in a free reader slot; doubles as "no pin" in the
  /// min-scan (any retirement epoch is below it).
  static constexpr uint64_t kFreeSlot = ~uint64_t{0};

  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> epoch{kFreeSlot};
  };

  /// Smallest pinned epoch across all reader slots (kFreeSlot when none).
  uint64_t MinPinnedEpoch() const;

  std::atomic<uint64_t> global_epoch_{1};
  ReaderSlot slots_[kMaxReaders];

  struct RetiredEntry {
    uint64_t epoch;
    std::function<void()> deleter;
  };

  mutable Mutex limbo_mu_{LockRank::kEpochReclaim, "epoch_limbo"};
  /// Epoch-ordered FIFO (Retire stamps under the lock, so epochs are
  /// monotone front to back and reclamation pops a prefix).
  std::deque<RetiredEntry> limbo_ VFPS_GUARDED_BY(limbo_mu_);

  std::atomic<uint64_t> retired_total_{0};
  std::atomic<uint64_t> reclaimed_total_{0};
};

/// A single published-snapshot slot. Readers Load() under a pin; writers
/// Publish() a replacement and the superseded snapshot is retired to the
/// manager's limbo list. This and EpochSlotArray are the only places an
/// atomic pointer swap may live (lint rule: sync-epoch-ok).
template <typename T>
class EpochPtr {
 public:
  EpochPtr() = default;
  ~EpochPtr() { delete ptr_.load(); }

  EpochPtr(const EpochPtr&) = delete;
  EpochPtr& operator=(const EpochPtr&) = delete;

  /// Current snapshot (may be nullptr before the first Publish). Caller
  /// must hold an epoch pin on the owning manager.
  T* Load() const { return ptr_.load(); }

  /// Swaps in `next` (ownership transfers to this slot) and retires the
  /// superseded snapshot via `manager`.
  void Publish(T* next, EpochManager* manager) {
    T* old = ptr_.exchange(next);
    if (old != nullptr) {
      manager->Retire([old] { delete old; });
    }
  }

 private:
  std::atomic<T*> ptr_{nullptr};
};

/// A grow-only array of published-snapshot slots indexed by a dense id
/// (PredicateId for the per-access-predicate cluster lists). Two-level:
/// a fixed directory of lazily allocated chunks, so readers never observe
/// a directory relocation and writers touch exactly one slot per publish.
template <typename T>
class EpochSlotArray {
 public:
  EpochSlotArray() : dir_(new std::atomic<Chunk*>[kMaxChunks]) {
    for (size_t c = 0; c < kMaxChunks; ++c) dir_[c].store(nullptr);
  }

  ~EpochSlotArray() {
    for (size_t c = 0; c < kMaxChunks; ++c) {
      Chunk* chunk = dir_[c].load();
      if (chunk == nullptr) continue;
      for (size_t s = 0; s < kChunkSize; ++s) delete chunk->slots[s].load();
      delete chunk;
    }
  }

  EpochSlotArray(const EpochSlotArray&) = delete;
  EpochSlotArray& operator=(const EpochSlotArray&) = delete;

  /// Snapshot at `index`, or nullptr. Caller must hold an epoch pin.
  T* Load(size_t index) const {
    const Chunk* chunk = dir_[index >> kChunkBits].load();
    if (chunk == nullptr) return nullptr;
    return chunk->slots[index & (kChunkSize - 1)].load();
  }

  /// Swaps `next` (may be nullptr to clear) into slot `index` and retires
  /// the superseded snapshot. Writer-side only (callers serialize).
  void Publish(size_t index, T* next, EpochManager* manager) {
    T* old = EnsureChunk(index)->slots[index & (kChunkSize - 1)].exchange(
        next);
    if (old != nullptr) {
      manager->Retire([old] { delete old; });
    }
  }

  /// Largest publishable index + 1.
  static constexpr size_t max_slots() { return kMaxChunks * kChunkSize; }

 private:
  static constexpr size_t kChunkBits = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  /// 4096 chunks x 1024 slots = 4M ids; the directory itself is 32 KiB
  /// and allocated eagerly so it never moves.
  static constexpr size_t kMaxChunks = 4096;

  struct Chunk {
    std::atomic<T*> slots[kChunkSize] = {};
  };

  Chunk* EnsureChunk(size_t index) {
    const size_t c = index >> kChunkBits;
    VFPS_CHECK(c < kMaxChunks);
    Chunk* chunk = dir_[c].load();
    if (chunk == nullptr) {
      chunk = new Chunk();
      dir_[c].store(chunk);  // single writer: no CAS needed
    }
    return chunk;
  }

  std::unique_ptr<std::atomic<Chunk*>[]> dir_;
};

/// Per-reader-slot scratch objects (match contexts): slot `i` is used
/// exclusively by whichever thread holds reader pin `i`, so after the
/// one-time allocation race there is no sharing.
template <typename T>
class ReaderLocal {
 public:
  ReaderLocal() = default;
  ~ReaderLocal() {
    for (auto& slot : slots_) delete slot.load();
  }

  ReaderLocal(const ReaderLocal&) = delete;
  ReaderLocal& operator=(const ReaderLocal&) = delete;

  /// The scratch object of reader slot `slot`, created on first use.
  template <typename Factory>
  T* GetOrCreate(size_t slot, Factory&& make) {
    VFPS_DCHECK(slot < EpochManager::kMaxReaders);
    T* existing = slots_[slot].load();
    if (existing != nullptr) return existing;
    T* fresh = make();
    T* expected = nullptr;
    if (!slots_[slot].compare_exchange_strong(expected, fresh)) {
      delete fresh;
      return expected;
    }
    return fresh;
  }

  /// Visits every allocated scratch object (writer-side aggregation; the
  /// caller must tolerate concurrent mutation of the visited objects).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& slot : slots_) {
      T* p = slot.load();
      if (p != nullptr) fn(p);
    }
  }

 private:
  std::atomic<T*> slots_[EpochManager::kMaxReaders] = {};
};

}  // namespace vfps

#endif  // VFPS_UTIL_EPOCH_H_
