#ifndef HGDB_WAVEFORM_STORAGE_BACKEND_H
#define HGDB_WAVEFORM_STORAGE_BACKEND_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/checked_mutex.h"

namespace hgdb::waveform {

/// Read side of the waveform store: one file opened read-only and read
/// with positional reads (pread) into caller-owned buffers — one syscall
/// per cold block and no address-space cost, so a replayed dump's pages
/// never count against the reader's resident set (the block cache bounds
/// what stays in memory). The reader, the verifier and the cache-miss
/// path all read through it.
///
/// Safe for concurrent read() calls into distinct buffers (pread is
/// positionless).
class StorageBackend {
 public:
  /// Opens `path` read-only. Throws WvxError (kNotFound / kIo).
  explicit StorageBackend(const std::string& path);
  ~StorageBackend();
  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  /// File size at open time.
  [[nodiscard]] uint64_t size() const { return size_; }

  /// Fills `out` with the `length` bytes starting at `offset`. Throws
  /// WvxError: kTruncatedBlock when the range extends past the size at
  /// open time or the file shrank since, kIo when the read fails.
  void read(uint64_t offset, size_t length, std::string& out) const;

 private:
  int fd_;
  uint64_t size_ = 0;
  std::string path_;
};

/// Write side of the waveform store. The IndexWriter appends block
/// payloads and the directory through it and patches the fixed-position
/// header at the end. The file is grown in chunks (ftruncate) and mapped
/// shared read-write: append is a memcpy, the header patch never seeks,
/// and finish() trims the file back to its logical size.
///
/// Serialized internally (one annotated mutex), so a producer may append
/// while another thread polls offset(). Bytes are in the page cache after
/// finish(); no fsync is issued.
class WriteBackend {
 public:
  /// Doubling from 1 MiB keeps remaps logarithmic in file size while the
  /// final ftruncate returns the slack, so small files stay small on disk.
  static constexpr uint64_t kInitialCapacity = 1ull << 20;

  /// Creates/truncates `path` and maps it. Throws WvxError(kIo) when the
  /// file cannot be created, or cannot be grown and mapped shared and
  /// writable (e.g. /dev/null).
  explicit WriteBackend(const std::string& path);
  /// An unfinished file keeps its chunk slack and a zero footer offset,
  /// which readers reject as never finalized.
  ~WriteBackend();
  WriteBackend(const WriteBackend&) = delete;
  WriteBackend& operator=(const WriteBackend&) = delete;

  /// Current append position == logical bytes written so far.
  [[nodiscard]] uint64_t offset() const;

  /// Appends `length` bytes at the current offset. Throws WvxError(kIo).
  void append(const char* data, size_t length);

  /// Overwrites `length` bytes at an absolute position without moving the
  /// append offset (header back-patching). The range must lie within the
  /// bytes already appended. Throws WvxError(kIo).
  void write_at(uint64_t offset, const char* data, size_t length);

  /// Unmaps, trims the file to offset() bytes and closes it. Must be the
  /// last call; throws WvxError(kIo) if the trim or close fails.
  void finish();

 private:
  void reserve_locked(uint64_t needed) HGDB_REQUIRES(mutex_);
  void unmap_locked() HGDB_REQUIRES(mutex_);

  mutable common::WaveformMutex mutex_{"waveform::write_mmap"};
  int fd_ HGDB_GUARDED_BY(mutex_) = -1;
  std::string path_;
  char* base_ HGDB_GUARDED_BY(mutex_) = nullptr;
  uint64_t capacity_ HGDB_GUARDED_BY(mutex_) = 0;
  uint64_t logical_size_ HGDB_GUARDED_BY(mutex_) = 0;
};

}  // namespace hgdb::waveform

#endif  // HGDB_WAVEFORM_STORAGE_BACKEND_H
