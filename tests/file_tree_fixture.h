// A real on-disk R*-tree for the tests that need genuine file descriptors
// (the io_uring loop, page-cache probes), a verified way to make its file
// cold, and the skip for kernels without io_uring.

#ifndef KCPQ_TESTS_FILE_TREE_FIXTURE_H_
#define KCPQ_TESTS_FILE_TREE_FIXTURE_H_

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "gtest/gtest.h"
#include "rtree/rtree.h"
#include "storage/file_storage.h"
#include "storage/uring_ring.h"

/// Hard-skips the test, visibly and with the probe's reason, when the
/// running kernel refuses io_uring rings.
#define KCPQ_SKIP_WITHOUT_URING()                                           \
  do {                                                                      \
    if (!::kcpq::UringAvailable()) {                                        \
      GTEST_SKIP() << "io_uring unavailable: "                              \
                   << ::kcpq::UringUnavailableReason();                     \
    }                                                                       \
  } while (0)

namespace kcpq {
namespace testing {

/// A real on-disk tree: FileStorageManager under a BufferManager, built in
/// a per-fixture temp file so rings operate on genuine file descriptors.
class FileTreeFixture {
 public:
  explicit FileTreeFixture(size_t buffer_pages = 0) {
    char tmpl[] = "/tmp/kcpq_uring_XXXXXX";
    const int fd = ::mkstemp(tmpl);
    KCPQ_CHECK_OK(fd >= 0 ? Status::OK() : Status::IoError("mkstemp"));
    ::close(fd);
    path_ = tmpl;
    auto created = FileStorageManager::Create(path_);
    KCPQ_CHECK_OK(created.status());
    storage_ = std::move(created).value();
    buffer_ = std::make_unique<BufferManager>(storage_.get(), buffer_pages);
    auto tree = RStarTree::Create(buffer_.get());
    KCPQ_CHECK_OK(tree.status());
    tree_ = std::move(tree).value();
  }

  ~FileTreeFixture() {
    tree_.reset();
    buffer_.reset();
    storage_.reset();
    ::unlink(path_.c_str());
  }

  Status Build(const std::vector<std::pair<Point, uint64_t>>& items) {
    for (const auto& [p, id] : items) {
      KCPQ_RETURN_IF_ERROR(tree_->Insert(p, id));
    }
    return tree_->Flush();
  }

  /// Drops the file from the OS page cache (after writing it back), so
  /// the next reads cannot be served without a wait and go to the ring.
  /// A failed no-wait read may have started readahead that is still in
  /// flight, and DONTNEED skips pages under I/O, so this repeats until
  /// mincore shows no page of the file resident.
  void EvictPageCache() {
    const int fd = ::open(path_.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0) << path_;
    ::fsync(fd);
    struct stat st {};
    ASSERT_EQ(::fstat(fd, &st), 0);
    const size_t bytes = static_cast<size_t>(st.st_size);
    void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
    ASSERT_NE(map, MAP_FAILED);
    const long os_page = ::sysconf(_SC_PAGESIZE);
    std::vector<unsigned char> resident((bytes + os_page - 1) / os_page);
    bool evicted = false;
    for (int attempt = 0; attempt < 1000 && !evicted; ++attempt) {
      if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
      ASSERT_EQ(::mincore(map, bytes, resident.data()), 0);
      evicted = std::none_of(resident.begin(), resident.end(),
                             [](unsigned char r) { return (r & 1) != 0; });
    }
    ::munmap(map, bytes);
    ::close(fd);
    ASSERT_TRUE(evicted) << path_ << " stayed in the page cache";
  }

  RStarTree& tree() { return *tree_; }
  BufferManager& buffer() { return *buffer_; }
  FileStorageManager& storage() { return *storage_; }

 private:
  std::string path_;
  std::unique_ptr<FileStorageManager> storage_;
  std::unique_ptr<BufferManager> buffer_;
  std::unique_ptr<RStarTree> tree_;
};

}  // namespace testing
}  // namespace kcpq

#endif  // KCPQ_TESTS_FILE_TREE_FIXTURE_H_
