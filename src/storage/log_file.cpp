#include "src/storage/log_file.hpp"

#include <algorithm>
#include <cassert>

namespace uvs::storage {

Result<std::uint32_t> FreeChunkStack::Pop() {
  if (!recycled_.empty()) {
    const std::uint32_t id = recycled_.back();
    recycled_.pop_back();
    return id;
  }
  if (minted_ == chunk_count_) return ResourceExhaustedError("no free chunks");
  return minted_++;
}

void FreeChunkStack::Push(std::uint32_t chunk_id) { recycled_.push_back(chunk_id); }

LogFile::LogFile(Bytes capacity, Bytes chunk_size, ChunkBudget* budget)
    : chunk_size_(chunk_size),
      chunk_count_(static_cast<std::uint32_t>(std::max<Bytes>(1, capacity / chunk_size))),
      budget_(budget),
      free_chunks_(chunk_count_) {
  assert(chunk_size > 0);
}

Bytes LogFile::appendable() const {
  Bytes total = static_cast<Bytes>(free_chunks_.size()) * chunk_size_;
  if (open_chunk_ >= 0) total += chunk_size_ - open_fill_;
  return total;
}

std::vector<Extent> LogFile::AppendUpTo(Bytes len) {
  std::vector<Extent> extents;
  while (len > 0) {
    if (open_chunk_ < 0 || open_fill_ == chunk_size_) {
      if (free_chunks_.empty()) break;  // log full: caller spills the remainder
      if (budget_ != nullptr && !budget_->TryConsume()) break;  // layer full
      auto next = free_chunks_.Pop();
      open_chunk_ = static_cast<std::int64_t>(*next);
      open_fill_ = 0;
      if (*next == live_bytes_.size()) live_bytes_.push_back(0);  // first touch
    }
    const Bytes room = chunk_size_ - open_fill_;
    const Bytes take = std::min(room, len);
    const Bytes addr = static_cast<Bytes>(open_chunk_) * chunk_size_ + open_fill_;
    // Merge with the previous extent when contiguous (common case).
    if (!extents.empty() && extents.back().end() == addr) {
      extents.back().len += take;
    } else {
      extents.push_back(Extent{addr, take});
    }
    open_fill_ += take;
    live_bytes_[static_cast<std::size_t>(open_chunk_)] += take;
    used_ += take;
    len -= take;
  }
  return extents;
}

Status LogFile::Free(const Extent& extent) {
  if (extent.end() > capacity()) return OutOfRangeError("extent beyond log capacity");
  // Walk the chunks the extent overlaps.
  Bytes addr = extent.addr;
  Bytes remaining = extent.len;
  while (remaining > 0) {
    const auto chunk = static_cast<std::size_t>(addr / chunk_size_);
    const Bytes within = addr % chunk_size_;
    const Bytes span = std::min(chunk_size_ - within, remaining);
    if (chunk >= live_bytes_.size()) return FailedPreconditionError("free of unwritten chunk");
    if (live_bytes_[chunk] < span) return FailedPreconditionError("double free in chunk");
    live_bytes_[chunk] -= span;
    used_ -= span;
    if (live_bytes_[chunk] == 0) {
      if (static_cast<std::int64_t>(chunk) == open_chunk_) {
        // The open chunk's unwritten tail is reclaimed with it.
        open_chunk_ = -1;
        open_fill_ = 0;
      }
      free_chunks_.Push(static_cast<std::uint32_t>(chunk));
      if (budget_ != nullptr) budget_->Release();
    }
    addr += span;
    remaining -= span;
  }
  return Status::Ok();
}

}  // namespace uvs::storage
