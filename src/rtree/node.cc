#include "rtree/node.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <type_traits>

namespace kcpq {

namespace {

// Bounds sanity for deserialization; R-tree heights are single digits even
// for billions of entries, so 64 levels means corruption.
constexpr int32_t kMaxLevel = 64;

void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, sizeof(v)); }
uint64_t GetU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
void PutF64(uint8_t* dst, double v) { std::memcpy(dst, &v, sizeof(v)); }
double GetF64(const uint8_t* src) {
  double v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
void PutI32(uint8_t* dst, int32_t v) { std::memcpy(dst, &v, sizeof(v)); }
int32_t GetI32(const uint8_t* src) {
  int32_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

/// Storage unit of an image's single allocation, aligned for every part.
struct alignas(std::max_align_t) ImageWord {
  unsigned char bytes[alignof(std::max_align_t)];
};

constexpr size_t AlignUp(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}

// The allocation is released as an array of ImageWord, without running
// any destructor of the objects placed in it.
static_assert(std::is_trivially_destructible_v<NodeImage> &&
              std::is_trivially_destructible_v<Entry>);

// The one validation point for node pages: every decode (an image or a
// mutable Node) reads the header and the entries through these two.
Status ReadHeader(const Page& page, int32_t* level, size_t* count) {
  if (page.size() < kNodeHeaderSize) {
    return Status::Corruption("page shorter than a node header");
  }
  const uint8_t* base = page.data();
  *level = GetI32(base + 0);
  const int32_t n = GetI32(base + 4);
  if (*level < 0 || *level > kMaxLevel) {
    return Status::Corruption("node level out of range");
  }
  if (n < 0 || static_cast<size_t>(n) > NodeCapacity(page.size())) {
    return Status::Corruption("node entry count out of range");
  }
  *count = static_cast<size_t>(n);
  return Status::OK();
}

Status ReadEntry(const Page& page, size_t i, Entry* e) {
  const uint8_t* p = page.data() + kNodeHeaderSize + i * kEntrySize;
  for (int d = 0; d < kDims; ++d) {
    e->rect.lo[d] = GetF64(p + d * 8);
    e->rect.hi[d] = GetF64(p + (kDims + d) * 8);
  }
  e->id = GetU64(p + 2 * kDims * 8);
  if (!e->rect.IsValid()) {
    return Status::Corruption("entry rect with lo > hi or a NaN");
  }
  return Status::OK();
}

// An internal node's entry ids are child page ids, which must name pages
// of the store. Kept apart from ReadEntry, whose every call is hot.
Status CheckChildren(int32_t level, std::span<const Entry> entries,
                     uint64_t page_count) {
  if (level == 0) return Status::OK();
  for (const Entry& e : entries) {
    if (e.id >= page_count) {
      return Status::Corruption("child page id past the end of the store");
    }
  }
  return Status::OK();
}

// The on-page layout; callers have checked the level and the count.
void WriteNodePage(int32_t level, std::span<const Entry> entries,
                   Page* page) {
  page->Clear();
  uint8_t* base = page->data();
  PutI32(base + 0, level);
  PutI32(base + 4, static_cast<int32_t>(entries.size()));
  PutU64(base + 8, 0);
  uint8_t* p = base + kNodeHeaderSize;
  for (const Entry& e : entries) {
    for (int d = 0; d < kDims; ++d) {
      PutF64(p + d * 8, e.rect.lo[d]);
      PutF64(p + (kDims + d) * 8, e.rect.hi[d]);
    }
    PutU64(p + 2 * kDims * 8, e.id);
    PutU64(p + 2 * kDims * 8 + 8, 0);
    p += kEntrySize;
  }
}

}  // namespace

Status SerializeNode(const Node& node, Page* page) {
  const size_t capacity = NodeCapacity(page->size());
  if (node.entries.size() > capacity) {
    return Status::InvalidArgument(
        "node with " + std::to_string(node.entries.size()) +
        " entries exceeds page capacity " + std::to_string(capacity));
  }
  if (node.level < 0 || node.level > kMaxLevel) {
    return Status::InvalidArgument("bad node level");
  }
  WriteNodePage(node.level, node.entries, page);
  return Status::OK();
}

Status NodeImage::Decode(const Page& page,
                         std::shared_ptr<const NodeImage>* out,
                         uint64_t page_count) {
  int32_t level = 0;
  size_t n = 0;
  KCPQ_RETURN_IF_ERROR(ReadHeader(page, &level, &n));
  const size_t entries_at = AlignUp(sizeof(NodeImage), alignof(Entry));
  const size_t orders_at =
      AlignUp(entries_at + n * sizeof(Entry), alignof(uint32_t));
  const size_t bytes = orders_at + kDims * n * sizeof(uint32_t);
  auto block = std::make_shared_for_overwrite<ImageWord[]>(
      (bytes + sizeof(ImageWord) - 1) / sizeof(ImageWord));
  unsigned char* raw = reinterpret_cast<unsigned char*>(block.get());
  NodeImage* image = new (raw) NodeImage();
  Entry* entries = reinterpret_cast<Entry*>(raw + entries_at);
  Rect mbr = Rect::Empty();
  for (size_t i = 0; i < n; ++i) {
    Entry* e = new (entries + i) Entry();
    KCPQ_RETURN_IF_ERROR(ReadEntry(page, i, e));
    mbr.Expand(e->rect);
  }
  KCPQ_RETURN_IF_ERROR(CheckChildren(level, {entries, n}, page_count));
  uint32_t* orders = reinterpret_cast<uint32_t*>(raw + orders_at);
  for (int axis = 0; axis < kDims; ++axis) {
    uint32_t* order = orders + axis * n;
    std::iota(order, order + n, 0u);
    std::sort(order, order + n, [entries, axis](uint32_t a, uint32_t b) {
      return entries[a].rect.lo[axis] < entries[b].rect.lo[axis];
    });
    image->order_[axis] = order;
  }
  image->level_ = level;
  image->count_ = static_cast<uint32_t>(n);
  image->mbr_ = mbr;
  image->entries_ = entries;
  *out = std::shared_ptr<const NodeImage>(std::move(block), image);
  return Status::OK();
}

void NodeImage::Encode(Page* page) const {
  WriteNodePage(level_, entries(), page);
}

Status DeserializeNode(const Page& page, Node* node, uint64_t page_count) {
  size_t n = 0;
  KCPQ_RETURN_IF_ERROR(ReadHeader(page, &node->level, &n));
  node->entries.resize(n);
  for (size_t i = 0; i < n; ++i) {
    KCPQ_RETURN_IF_ERROR(ReadEntry(page, i, &node->entries[i]));
  }
  return CheckChildren(node->level, node->entries, page_count);
}

}  // namespace kcpq
