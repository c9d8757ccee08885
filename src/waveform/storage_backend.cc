#include "waveform/storage_backend.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "waveform/index_format.h"

namespace hgdb::waveform {

namespace {

[[noreturn]] void fail(WvxFault fault, const std::string& path,
                       const std::string& what) {
  throw WvxError(fault, "wvx: " + what + " '" + path + "'" +
                            (errno != 0 ? std::string(": ") + std::strerror(errno)
                                        : std::string()));
}

}  // namespace

// ---------------------------------------------------------------------------
// read side
// ---------------------------------------------------------------------------

StorageBackend::StorageBackend(const std::string& path) : path_(path) {
  errno = 0;
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) fail(WvxFault::kNotFound, path, "cannot open index file");
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fail(WvxFault::kIo, path, "cannot stat");
  }
  size_ = static_cast<uint64_t>(st.st_size);
}

StorageBackend::~StorageBackend() { ::close(fd_); }

void StorageBackend::read(uint64_t offset, size_t length,
                          std::string& out) const {
  if (offset > size_ || length > size_ - offset) {
    throw WvxError(WvxFault::kTruncatedBlock,
                   "wvx: read of " + std::to_string(length) + " bytes at " +
                       std::to_string(offset) + " past end of '" + path_ +
                       "' (" + std::to_string(size_) + " bytes)");
  }
  out.resize(length);
  size_t done = 0;
  while (done < length) {
    const ssize_t got = ::pread(fd_, out.data() + done, length - done,
                                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      fail(WvxFault::kIo, path_, "read failed for");
    }
    if (got == 0) {  // file shrank underneath us
      errno = 0;
      fail(WvxFault::kTruncatedBlock, path_, "unexpected EOF in");
    }
    done += static_cast<size_t>(got);
  }
}

// ---------------------------------------------------------------------------
// write side
// ---------------------------------------------------------------------------

WriteBackend::WriteBackend(const std::string& path) : path_(path) {
  errno = 0;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) fail(WvxFault::kIo, path, "cannot create index file");
  void* base = MAP_FAILED;
  if (::ftruncate(fd_, static_cast<off_t>(kInitialCapacity)) == 0) {
    base = ::mmap(nullptr, static_cast<size_t>(kInitialCapacity),
                  PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  }
  if (base == MAP_FAILED) {
    const int error = errno;
    ::close(fd_);
    errno = error;
    fail(WvxFault::kIo, path, "writable mmap failed for");
  }
  base_ = static_cast<char*>(base);
  capacity_ = kInitialCapacity;
}

WriteBackend::~WriteBackend() {
  common::LockGuard lock(mutex_);
  unmap_locked();
  if (fd_ >= 0) ::close(fd_);
}

uint64_t WriteBackend::offset() const {
  common::LockGuard lock(mutex_);
  return logical_size_;
}

void WriteBackend::append(const char* data, size_t length) {
  common::LockGuard lock(mutex_);
  reserve_locked(logical_size_ + length);
  std::memcpy(base_ + logical_size_, data, length);
  logical_size_ += length;
}

void WriteBackend::write_at(uint64_t offset, const char* data, size_t length) {
  common::LockGuard lock(mutex_);
  if (offset > logical_size_ || length > logical_size_ - offset) {
    errno = 0;
    fail(WvxFault::kIo, path_, "patch past logical end of");
  }
  std::memcpy(base_ + offset, data, length);
}

void WriteBackend::finish() {
  common::LockGuard lock(mutex_);
  unmap_locked();
  // Return the growth slack: readers must see exactly logical_size_
  // bytes, and a zero-padded tail would parse as a truncated block.
  if (::ftruncate(fd_, static_cast<off_t>(logical_size_)) != 0) {
    fail(WvxFault::kIo, path_, "final truncate failed for");
  }
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) fail(WvxFault::kIo, path_, "close failed for");
}

void WriteBackend::reserve_locked(uint64_t needed) {
  if (needed <= capacity_) return;
  // capacity_ is 0 once unmapped (a failed remap, or after finish()).
  uint64_t capacity = std::max(capacity_, kInitialCapacity);
  while (capacity < needed) capacity *= 2;
  if (::ftruncate(fd_, static_cast<off_t>(capacity)) != 0) {
    fail(WvxFault::kIo, path_, "grow failed for");
  }
  // Remap rather than map a second window: the directory write spans
  // block boundaries and must stay contiguous.
  unmap_locked();
  void* base = ::mmap(nullptr, static_cast<size_t>(capacity),
                      PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (base == MAP_FAILED) fail(WvxFault::kIo, path_, "remap failed for");
  base_ = static_cast<char*>(base);
  capacity_ = capacity;
}

void WriteBackend::unmap_locked() {
  if (base_ != nullptr) {
    ::munmap(base_, static_cast<size_t>(capacity_));
    base_ = nullptr;
    capacity_ = 0;
  }
}

}  // namespace hgdb::waveform
