#include "storage/page_file.h"

#include <cstring>

namespace burtree {

PageFile::PageFile(size_t page_size) : PageStore(page_size) {}

PageId PageFile::Allocate() {
  std::unique_lock lock(mu_);
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    std::memset(slots_[id].get(), 0, page_size());
    live_[id] = true;
    return id;
  }
  PageId id = static_cast<PageId>(slots_.size());
  slots_.emplace_back(new uint8_t[page_size()]);
  std::memset(slots_[id].get(), 0, page_size());
  live_.push_back(true);
  return id;
}

Status PageFile::Free(PageId id) {
  std::unique_lock lock(mu_);
  if (id >= slots_.size() || !live_[id]) {
    return Status::InvalidArgument("Free of non-live page");
  }
  live_[id] = false;
  free_list_.push_back(id);
  return Status::OK();
}

Status PageFile::Read(PageId id, uint8_t* out) {
  {
    std::shared_lock lock(mu_);
    if (!IsLiveLocked(id)) {
      return Status::InvalidArgument("Read of non-live page");
    }
    std::memcpy(out, slots_[id].get(), page_size());
  }
  CountRead();
  return Status::OK();
}

Status PageFile::Write(PageId id, const uint8_t* in) {
  {
    std::shared_lock lock(mu_);  // slot vector is not resized here
    if (!IsLiveLocked(id)) {
      return Status::InvalidArgument("Write of non-live page");
    }
    std::memcpy(slots_[id].get(), in, page_size());
  }
  CountWrite();
  return Status::OK();
}

Status PageFile::FlushDirtyBatch(const std::vector<PageWriteRequest>& reqs) {
  if (reqs.empty()) return Status::OK();
  {
    std::shared_lock lock(mu_);  // slot vector is not resized here
    for (const auto& r : reqs) {
      if (!IsLiveLocked(r.id)) {
        return Status::InvalidArgument("FlushDirtyBatch of non-live page");
      }
    }
    for (const auto& r : reqs) {
      std::memcpy(slots_[r.id].get(), r.data, page_size());
    }
  }
  CountWrites(reqs.size());
  return Status::OK();
}

size_t PageFile::live_pages() const {
  std::shared_lock lock(mu_);
  return slots_.size() - free_list_.size();
}

size_t PageFile::allocated_slots() const {
  std::shared_lock lock(mu_);
  return slots_.size();
}

bool PageFile::IsLiveLocked(PageId id) const {
  return id < slots_.size() && live_[id];
}

}  // namespace burtree
