// Log-structured per-process file (§II-B1).
//
// Each log has a fixed allocated capacity, formatted as equal-size chunks.
// Data is appended sequentially inside the current chunk; when a chunk
// fills, the next chunk id is popped from the free-chunk stack. Freeing an
// extent decrements its chunks' live-byte counts and recycles fully-freed
// chunks by pushing their ids back onto the stack.
//
// The capacity is virtual: bookkeeping grows with the chunks a log has
// touched, never with its capacity, so a log may be sized far beyond what
// it will ever hold.
//
// Addresses returned by Append are *physical addresses within this log*
// (chunk_id * chunk_size + offset); placement::VirtualAddress turns them
// into layer-qualified virtual addresses.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/units.hpp"

namespace uvs::storage {

/// A contiguous byte range inside one log.
struct Extent {
  Bytes addr = 0;
  Bytes len = 0;

  Bytes end() const { return addr + len; }
  friend bool operator==(const Extent&, const Extent&) = default;
};

/// LIFO recycler of chunk ids (§II-B1's "free chunk stack"). Ids never
/// handed out are minted in ascending order from a high-water mark, so the
/// stack itself holds only recycled ids.
class FreeChunkStack {
 public:
  explicit FreeChunkStack(std::uint32_t chunk_count) : chunk_count_(chunk_count) {}

  bool empty() const { return size() == 0; }
  std::size_t size() const { return recycled_.size() + (chunk_count_ - minted_); }

  /// Pops the most recently freed chunk, else the lowest never-used id.
  Result<std::uint32_t> Pop();
  void Push(std::uint32_t chunk_id);

 private:
  std::uint32_t chunk_count_;
  std::uint32_t minted_ = 0;  // ids [0, minted_) have been handed out
  std::vector<std::uint32_t> recycled_;
};

/// Grants/returns whole chunks of backing space. A LogFile consults it
/// before opening each chunk, so many logs can share one layer's physical
/// budget while each keeps its own (virtual) capacity for VA purposes.
class ChunkBudget {
 public:
  virtual ~ChunkBudget() = default;
  /// Claims one chunk of backing space; false when the layer is full.
  virtual bool TryConsume() = 0;
  /// Returns one chunk (called when a log chunk becomes fully free).
  virtual void Release() = 0;
};

class LogFile {
 public:
  /// `capacity` is rounded down to a whole number of chunks (at least one
  /// chunk; pass capacity >= chunk_size). `budget` (optional, borrowed)
  /// gates physical chunk allocation; without it the log is self-backed.
  LogFile(Bytes capacity, Bytes chunk_size, ChunkBudget* budget = nullptr);

  Bytes capacity() const { return chunk_size_ * chunk_count_; }
  Bytes chunk_size() const { return chunk_size_; }
  std::uint32_t chunk_count() const { return chunk_count_; }

  /// Live (not yet freed) bytes.
  Bytes used() const { return used_; }
  /// Chunks drawn (from the budget, if any) and not yet returned.
  Bytes consumed_chunks() const {
    return static_cast<Bytes>(chunk_count_) - static_cast<Bytes>(free_chunks_.size());
  }
  /// Bytes still appendable (free chunks plus the tail of the current one).
  Bytes appendable() const;

  /// Appends up to `len` bytes, consuming whole chunks as needed. Returns
  /// the extents written, possibly covering fewer than `len` bytes if the
  /// log runs out of space (the caller cascades the remainder to the next
  /// storage layer). Extents within one call are chunk-aligned pieces.
  std::vector<Extent> AppendUpTo(Bytes len);

  /// Marks an extent's bytes dead; fully-dead chunks return to the free
  /// stack for reuse. The extent must lie within previously appended space.
  Status Free(const Extent& extent);

 private:
  Bytes chunk_size_;
  std::uint32_t chunk_count_;
  ChunkBudget* budget_;
  FreeChunkStack free_chunks_;
  // Current append chunk: id and fill level; -1 when none is open.
  std::int64_t open_chunk_ = -1;
  Bytes open_fill_ = 0;
  std::vector<Bytes> live_bytes_;  // per touched chunk, indexed by id
  Bytes used_ = 0;
};

}  // namespace uvs::storage
