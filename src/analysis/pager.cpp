#include "analysis/pager.h"

#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__linux__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#define BOOSTING_PAGER_POSIX 1
#endif

namespace boosting::analysis {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error("pager: " + what + ": " +
                           std::strerror(errno));
}

#if defined(BOOSTING_PAGER_POSIX)
std::size_t pageSize() {
  static const std::size_t ps =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

// Full pwrite/pread: short transfers are legal for regular files under
// signals, so loop until done.
void pwriteAll(int fd, const void* buf, std::size_t len, std::uint64_t off) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    const ::ssize_t n = ::pwrite(fd, p, len, static_cast<::off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("pwrite to spill file failed");
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
}

void preadAll(int fd, void* buf, std::size_t len, std::uint64_t off) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    const ::ssize_t n = ::pread(fd, p, len, static_cast<::off_t>(off));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throwErrno("pread from spill file failed");
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
}
#endif

std::string resolveSpillDir(const std::string& dir) {
  if (!dir.empty()) return dir;
  if (const char* env = std::getenv("TMPDIR"); env && *env) return env;
  return "/tmp";
}

}  // namespace

int openUnlinkedSpillFile(const std::string& dir) {
#if defined(BOOSTING_PAGER_POSIX)
  const std::string d = resolveSpillDir(dir);
#if defined(O_TMPFILE)
  // Born unlinked: the file never has a name at all.
  int fd = ::open(d.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
  if (fd >= 0) return fd;
#endif
  // Fallback (filesystems without O_TMPFILE): create-then-unlink. The
  // named window is a few instructions wide.
  std::string tmpl = d + "/boosting-spill-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const int fd2 = ::mkstemp(buf.data());
  if (fd2 < 0) {
    throwErrno("cannot create spill file in '" + d + "'");
  }
  ::unlink(buf.data());
  return fd2;
#else
  (void)dir;
  throw std::runtime_error(
      "pager: spill is only supported on POSIX platforms");
#endif
}

#if defined(BOOSTING_PAGER_POSIX)

Pager::Pager(const Config& cfg)
    : failDemoteAfter_(cfg.failDemoteAfter), failEvictAfter_(cfg.failEvictAfter) {
  if (cfg.budgetBytes == 0 || cfg.chunkBytes == 0) {
    throw std::invalid_argument("pager: budget and chunk size must be > 0");
  }
  const std::size_t ps = pageSize();
  mapBytes_ = (cfg.chunkBytes + ps - 1) / ps * ps;
  maxHot_ = static_cast<std::size_t>(cfg.budgetBytes / mapBytes_);
  if (maxHot_ < 2) maxHot_ = 2;
  fd_ = openUnlinkedSpillFile(cfg.spillDir);
}

Pager::~Pager() {
  for (void* m : mappings_) ::munmap(m, mapBytes_);
  if (fd_ >= 0) ::close(fd_);
}

void* Pager::allocChunk() {
  void* m = ::mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m == MAP_FAILED) throwErrno("anonymous chunk mmap failed");
  mappings_.push_back(m);
  return m;
}

std::uint32_t Pager::demote(void* chunk) {
  if (failDemoteAfter_ != 0 && ++demotes_ >= failDemoteAfter_) {
    throw std::runtime_error("pager: injected demote failure");
  }
  const std::uint32_t coldId = static_cast<std::uint32_t>(cold_.size());
  const std::uint64_t off = static_cast<std::uint64_t>(coldId) * mapBytes_;
  pwriteAll(fd_, chunk, mapBytes_, off);
  // Replace the anonymous pages with a read-only view of what was just
  // written -- same address, same bytes, so every outstanding pointer into
  // the chunk keeps working and keeps reading identical contents.
  void* m = ::mmap(chunk, mapBytes_, PROT_READ, MAP_PRIVATE | MAP_FIXED,
                   fd_, static_cast<::off_t>(off));
  if (m == MAP_FAILED) throwErrno("MAP_FIXED remap of cold chunk failed");
  assert(m == chunk);
  // Cold chunks are read back list-by-list, not in write order.
  (void)::madvise(chunk, mapBytes_, MADV_RANDOM);
  Cold c;
  c.addr = chunk;
  c.resident = true;
  cold_.push_back(c);
  lru_.push_front(coldId);
  cold_[coldId].lruIt = lru_.begin();
  ++stats_.chunksCold;
  stats_.bytesOnDisk += mapBytes_;
  evictOverBudget();
  return coldId;
}

void Pager::touchCold(std::uint32_t coldId) {
  assert(coldId < cold_.size());
  Cold& c = cold_[coldId];
  if (c.resident) {
    if (c.lruIt != lru_.begin()) {
      lru_.splice(lru_.begin(), lru_, c.lruIt);
    }
    return;
  }
  // Logical refault: the pages come back from the file on demand; ask the
  // kernel to read ahead since a whole successor list is about to be
  // walked.
  ++stats_.faults;
  (void)::madvise(c.addr, mapBytes_, MADV_WILLNEED);
  c.resident = true;
  lru_.push_front(coldId);
  c.lruIt = lru_.begin();
  evictOverBudget();
}

void Pager::evictOverBudget() {
  while (lru_.size() > maxHot_) {
    if (failEvictAfter_ != 0 && ++evicts_ >= failEvictAfter_) {
      throw std::runtime_error("pager: injected eviction failure");
    }
    const std::uint32_t victim = lru_.back();
    Cold& c = cold_[victim];
    // Clean read-only file-backed pages: DONTNEED drops them from the
    // resident set; the next access refaults from the spill file.
    if (::madvise(c.addr, mapBytes_, MADV_DONTNEED) != 0) {
      throwErrno("MADV_DONTNEED eviction failed");
    }
    lru_.pop_back();
    c.resident = false;
    ++stats_.evictions;
  }
}

#else  // !BOOSTING_PAGER_POSIX

Pager::Pager(const Config&) {
  throw std::runtime_error(
      "pager: spill is only supported on POSIX platforms");
}
Pager::~Pager() = default;
void* Pager::allocChunk() { return nullptr; }
std::uint32_t Pager::demote(void*) { return 0; }
void Pager::touchCold(std::uint32_t) {}
void Pager::evictOverBudget() {}

#endif

SpilledFrontier::SpilledFrontier(std::size_t spillThreshold,
                                 std::size_t segmentEntries,
                                 std::string spillDir)
    : threshold_(spillThreshold),
      segEntries_(segmentEntries < 2 ? 2 : segmentEntries),
      dir_(std::move(spillDir)) {}

SpilledFrontier::~SpilledFrontier() {
#if defined(BOOSTING_PAGER_POSIX)
  if (fd_ >= 0) ::close(fd_);
#endif
}

void SpilledFrontier::push(std::uint64_t v) {
  if (threshold_ == 0) {
    head_.push_back(v);
  } else {
    tail_.push_back(v);
    // Keep spilling while over the threshold: the oldest in-memory tail
    // entries go out first, so segments on disk stay in FIFO order
    // between the head window (older) and the tail window (newer).
    while (tail_.size() >= segEntries_ && size() > threshold_) {
      spillOneSegment();
    }
  }
  if (size() > stats_.entriesPeak) {
    stats_.entriesPeak = static_cast<std::uint64_t>(size());
  }
}

bool SpilledFrontier::pop(std::uint64_t* out) {
  if (head_.empty()) {
    if (!segOffsets_.empty()) {
      reloadOldestSegment();
    } else {
      head_.swap(tail_);
    }
  }
  if (head_.empty()) return false;
  *out = head_.front();
  head_.pop_front();
  return true;
}

void SpilledFrontier::spillOneSegment() {
#if defined(BOOSTING_PAGER_POSIX)
  if (fd_ < 0) fd_ = openUnlinkedSpillFile(dir_);
  const std::size_t bytes = segEntries_ * sizeof(std::uint64_t);
  std::uint64_t off;
  if (!freeOffsets_.empty()) {
    off = freeOffsets_.back();
    freeOffsets_.pop_back();
  } else {
    off = fileTail_;
    fileTail_ += bytes;
  }
  std::vector<std::uint64_t> buf(segEntries_);
  for (std::size_t k = 0; k < segEntries_; ++k) {
    buf[k] = tail_.front();
    tail_.pop_front();
  }
  pwriteAll(fd_, buf.data(), bytes, off);
  segOffsets_.push_back(off);
  diskEntries_ += segEntries_;
  ++stats_.segmentsSpilled;
#else
  throw std::runtime_error(
      "pager: spill is only supported on POSIX platforms");
#endif
}

void SpilledFrontier::reloadOldestSegment() {
#if defined(BOOSTING_PAGER_POSIX)
  const std::uint64_t off = segOffsets_.front();
  segOffsets_.pop_front();
  const std::size_t bytes = segEntries_ * sizeof(std::uint64_t);
  std::vector<std::uint64_t> buf(segEntries_);
  preadAll(fd_, buf.data(), bytes, off);
  head_.insert(head_.end(), buf.begin(), buf.end());
  diskEntries_ -= segEntries_;
  freeOffsets_.push_back(off);
  ++stats_.segmentsReloaded;
#endif
}

}  // namespace boosting::analysis
