// StorageManager decorator that records a span around every page read and
// write it forwards.
//
// It sits between two layers of a stack the benchmark composes itself
// (under the buffer, or under the mirror on one replica). It counts reads
// and writes only in the base class's own atomics, never in the program's
// metrics registry, so kcpq_storage_reads_total still counts media reads
// exactly once. Asynchronous reads take the base class's default path,
// which calls the virtual ReadPage and so passes through the span too; the
// uring backend refuses decorators, which is why file-b0 has no such layer.

#ifndef CPQBENCH_TIMED_STORAGE_H_
#define CPQBENCH_TIMED_STORAGE_H_

#include "spans.h"
#include "storage/storage_manager.h"

namespace cpqbench {

class TimedStorageManager final : public kcpq::StorageManager {
 public:
  /// `base` must outlive the decorator. `replica` names its reads as those
  /// of one replica under the mirror.
  TimedStorageManager(kcpq::StorageManager* base, bool replica)
      : StorageManager(base->page_size()),
        base_(base),
        read_span_(replica ? kReplicaRead : kStorageRead) {}

  uint64_t PageCount() const override { return base_->PageCount(); }
  kcpq::Result<kcpq::PageId> Allocate() override { return base_->Allocate(); }
  kcpq::Status Free(kcpq::PageId id) override { return base_->Free(id); }
  kcpq::Status Sync() override { return base_->Sync(); }

  kcpq::Status WritePage(kcpq::PageId id, const kcpq::Page& page) override {
    ScopedSpan span(kStorageWrite);
    CountWrite();
    return base_->WritePage(id, page);
  }

 protected:
  kcpq::Status DoReadPage(kcpq::PageId id, kcpq::Page* page,
                          const kcpq::QueryContext* ctx) override {
    ScopedSpan span(read_span_);
    CountRead();
    return base_->ReadPage(id, page, ctx);
  }

 private:
  kcpq::StorageManager* base_;
  const SpanName read_span_;
};

}  // namespace cpqbench

#endif  // CPQBENCH_TIMED_STORAGE_H_
