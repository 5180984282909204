#include "storage/page_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace pcube {

Result<PageId> MemoryPageManager::Allocate() {
  auto page = std::make_unique<Page>();
  page->Zero();
  pages_.push_back(std::move(page));
  return static_cast<PageId>(pages_.size() - 1);
}

Status MemoryPageManager::Read(PageId pid, Page* out) {
  if (pid >= pages_.size()) {
    return Status::OutOfRange("page id " + std::to_string(pid) +
                              " >= " + std::to_string(pages_.size()));
  }
  *out = *pages_[pid];
  return Status::OK();
}

Status MemoryPageManager::Write(PageId pid, const Page& page) {
  if (pid >= pages_.size()) {
    return Status::OutOfRange("page id " + std::to_string(pid) +
                              " >= " + std::to_string(pages_.size()));
  }
  *pages_[pid] = page;
  return Status::OK();
}

Result<std::unique_ptr<FilePageManager>> FilePageManager::Open(
    const std::string& path, bool truncate) {
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IoError("lseek(" + path + "): " + std::strerror(errno));
  }
  uint64_t num_pages = static_cast<uint64_t>(size) / kPageSize;
  return std::unique_ptr<FilePageManager>(new FilePageManager(fd, num_pages));
}

FilePageManager::~FilePageManager() {
  if (fd_ >= 0) ::close(fd_);
}

Result<PageId> FilePageManager::Allocate() {
  Page zero;
  zero.Zero();
  PageId pid = num_pages_;
  PCUBE_RETURN_NOT_OK(Write(pid, zero));
  num_pages_ = pid + 1;
  return pid;
}

Status FilePageManager::Read(PageId pid, Page* out) {
  if (pid >= num_pages_) return Status::OutOfRange("page id out of range");
  ssize_t n = ::pread(fd_, out->data(), kPageSize,
                      static_cast<off_t>(pid * kPageSize));
  if (n < 0) {
    return Status::IoError("pread: " + std::string(std::strerror(errno)));
  }
  if (n != static_cast<ssize_t>(kPageSize)) {
    // A positive-but-short pread means the file ends mid-page: the store was
    // truncated, not that the device failed. Corruption, not IoError — the
    // BufferPool retries transient IoErrors but a truncated file never heals.
    return Status::Corruption("short pread: page " + std::to_string(pid) +
                              " got " + std::to_string(n) + "/" +
                              std::to_string(kPageSize) + " bytes");
  }
  return Status::OK();
}

Status FilePageManager::Write(PageId pid, const Page& page) {
  if (pid > num_pages_) return Status::OutOfRange("page id out of range");
  ssize_t n = ::pwrite(fd_, page.data(), kPageSize,
                       static_cast<off_t>(pid * kPageSize));
  if (n < 0) {
    return Status::IoError("pwrite: " + std::string(std::strerror(errno)));
  }
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("short pwrite: page " + std::to_string(pid) +
                           " wrote " + std::to_string(n) + "/" +
                           std::to_string(kPageSize) + " bytes");
  }
  return Status::OK();
}

Status FilePageManager::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IoError("fdatasync: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status LatencyPageManager::Read(PageId pid, Page* out) {
  double us = read_latency_us_.load(std::memory_order_relaxed);
  if (us > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(us));
  }
  return inner_->Read(pid, out);
}

}  // namespace pcube
