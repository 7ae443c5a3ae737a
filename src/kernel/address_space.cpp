#include "kernel/address_space.hpp"

#include <algorithm>
#include <iterator>

#include "util/assert.hpp"

namespace nlc::kern {

Vma AddressSpace::map(std::uint64_t npages, VmaKind kind,
                             std::string backing_file) {
  NLC_CHECK(npages > 0);
  Vma v;
  v.id = next_vma_id_++;
  v.start = next_page_;
  v.npages = npages;
  v.kind = kind;
  v.backing_file = std::move(backing_file);
  next_page_ += npages + 16;  // guard gap, like real mmap layouts
  insert_vma(v);
  return v;
}

void AddressSpace::install_vma(const Vma& v) {
  NLC_CHECK(v.npages > 0);
  for (const auto& existing : vmas_) {
    NLC_CHECK_MSG(v.end() <= existing.start || v.start >= existing.end(),
                  "install_vma overlaps an existing mapping");
  }
  next_vma_id_ = std::max(next_vma_id_, v.id + 1);
  next_page_ = std::max(next_page_, v.end() + 16);
  insert_vma(v);
}

void AddressSpace::insert_vma(Vma v) {
  auto it = std::upper_bound(
      vmas_.begin(), vmas_.end(), v.start,
      [](PageNum start, const Vma& x) { return start < x.start; });
  const auto pos = it - vmas_.begin();
  mapped_pages_ += v.npages;
  dirs_.emplace(dirs_.begin() + pos, (v.npages + kLeafPages - 1) / kLeafPages);
  vmas_.insert(it, std::move(v));
}

void AddressSpace::unmap(std::uint64_t vma_id) {
  auto it = std::find_if(vmas_.begin(), vmas_.end(),
                         [&](const Vma& v) { return v.id == vma_id; });
  NLC_CHECK_MSG(it != vmas_.end(), "unmap of unknown VMA");
  // The VMA's soft-dirty pages go with its leaves.
  const auto dir = dirs_.begin() + (it - vmas_.begin());
  for (const auto& leaf : *dir) {
    if (leaf) dirty_count_ -= leaf->dirty_count;
  }
  dirs_.erase(dir);
  mapped_pages_ -= it->npages;
  vmas_.erase(it);
}

std::uint64_t AddressSpace::leaf_count() const {
  std::uint64_t n = 0;
  for (const Directory& dir : dirs_) {
    for (const auto& leaf : dir) n += leaf ? 1 : 0;
  }
  return n;
}

const Vma* AddressSpace::find_vma(std::uint64_t vma_id) const {
  for (const auto& v : vmas_) {
    if (v.id == vma_id) return &v;
  }
  return nullptr;
}

std::size_t AddressSpace::vma_index(PageNum page) const {
  auto it = std::upper_bound(
      vmas_.begin(), vmas_.end(), page,
      [](PageNum p, const Vma& v) { return p < v.start; });
  if (it == vmas_.begin() || !std::prev(it)->contains(page)) {
    return vmas_.size();
  }
  return static_cast<std::size_t>(std::prev(it) - vmas_.begin());
}

std::pair<AddressSpace::Leaf&, std::size_t> AddressSpace::mapped_slot(
    PageNum page) {
  const std::size_t i = vma_index(page);
  NLC_CHECK_MSG(i < vmas_.size(), "access to unmapped page");
  const std::uint64_t off = page - vmas_[i].start;
  std::unique_ptr<Leaf>& leaf = dirs_[i][off / kLeafPages];
  if (!leaf) leaf = std::make_unique<Leaf>();
  return {*leaf, off % kLeafPages};
}

const AddressSpace::PageState* AddressSpace::slot(PageNum page) const {
  const std::size_t i = vma_index(page);
  if (i == vmas_.size()) return nullptr;
  const std::uint64_t off = page - vmas_[i].start;
  const Leaf* leaf = dirs_[i][off / kLeafPages].get();
  return leaf == nullptr ? nullptr : &leaf->slots[off % kLeafPages];
}

bool AddressSpace::touch(PageNum page) {
  auto [leaf, s] = mapped_slot(page);
  ++leaf.slots[s].version;
  return tracking_ && mark_dirty(leaf, s);
}

bool AddressSpace::mark_dirty(Leaf& leaf, std::size_t s) {
  std::uint64_t& word = leaf.dirty_mask[s / 64];
  const std::uint64_t bit = std::uint64_t{1} << (s % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  ++leaf.dirty_count;
  ++dirty_count_;
  return true;
}

std::uint64_t AddressSpace::touch_range(PageNum start, std::uint64_t count) {
  std::uint64_t faults = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    faults += touch(start + i) ? 1 : 0;
  }
  return faults;
}

bool AddressSpace::write(PageNum page, std::uint32_t offset,
                         std::span<const std::byte> data) {
  NLC_CHECK(offset + data.size() <= kPageSize);
  auto [leaf, s] = mapped_slot(page);
  PageState& st = leaf.slots[s];
  ++st.version;
  if (!st.payload) {
    st.payload = util::arena_make_shared<PageBytes>(kPageSize, std::byte{0});
  } else if (st.payload.use_count() > 1) {
    // A checkpoint image / page store / restored container still holds a
    // handle to these bytes: clone before mutating (copy-on-write), so the
    // captured state stays exactly what the freeze observed. The clone's
    // buffer and control block both come from the slab arena.
    st.payload = util::arena_make_shared<PageBytes>(*st.payload);
    ++cow_clones_;
  }
  std::copy(data.begin(), data.end(), st.payload->begin() + offset);
  return tracking_ && mark_dirty(leaf, s);
}

std::vector<std::byte> AddressSpace::read(PageNum page, std::uint32_t offset,
                                          std::uint32_t len) const {
  NLC_CHECK(offset + len <= kPageSize);
  std::vector<std::byte> out(len, std::byte{0});
  const PageState* st = slot(page);
  if (st != nullptr && st->payload) {
    const PageBytes& buf = *st->payload;
    std::copy(buf.begin() + offset, buf.begin() + offset + len, out.begin());
  }
  return out;
}

PagePayload AddressSpace::content(PageNum page) const {
  const PageState* st = slot(page);
  return st == nullptr ? nullptr : st->payload;
}

void AddressSpace::install_content(PageNum page, PagePayload data) {
  NLC_CHECK(data != nullptr && data->size() == kPageSize);
  auto [leaf, s] = mapped_slot(page);
  PageState& st = leaf.slots[s];
  ++st.version;
  // Adopt the shared handle. The stored pointer is non-const because this
  // address space owns future mutations of the page; copy-on-write in
  // write() guarantees the adopted bytes are never modified while any other
  // holder (image, page store) keeps its handle.
  st.payload = std::const_pointer_cast<PageBytes>(data);
  if (tracking_) mark_dirty(leaf, s);
}

void AddressSpace::clear_dirty_bits() {
  if (dirty_count_ == 0) return;
  for (Directory& dir : dirs_) {
    for (const auto& leaf : dir) {
      if (!leaf || leaf->dirty_count == 0) continue;
      leaf->dirty_mask.fill(0);
      leaf->dirty_count = 0;
    }
  }
  dirty_count_ = 0;
}

void AddressSpace::clear_soft_dirty() {
  tracking_ = true;
  clear_dirty_bits();
}

void AddressSpace::disable_tracking() {
  tracking_ = false;
  clear_dirty_bits();
}

std::uint64_t AddressSpace::page_version(PageNum page) const {
  const PageState* st = slot(page);
  return st == nullptr ? 0 : st->version;
}

}  // namespace nlc::kern
