#include "graph/storage.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

namespace mce {
namespace {

struct CsrHeader {
  uint64_t magic;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint64_t reserved;
};
static_assert(sizeof(CsrHeader) == 32);

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// ValidateCsr's scans run on every load, over every entry of the file.
// They have no early exit: each fixed-width chunk ORs its comparison
// results, a constant trip count the compiler vectorizes at -O2. A
// branch-per-entry loop is at the mercy of code layout: on a 4-vCPU Xeon
// the same machine code checked a 200k-entry adjacency in 70 us or in
// 134 us depending on whether an unrelated change elsewhere in the
// library moved the loop across a 64-byte boundary.
constexpr size_t kScanChunk = 16;

/// True when some offsets[i] > offsets[i + 1]. `offsets` is non-empty.
bool AnyDescending(std::span<const uint64_t> offsets) {
  const size_t pairs = offsets.size() - 1;
  uint64_t bad = 0;
  size_t i = 0;
  for (; i + kScanChunk <= pairs; i += kScanChunk) {
    for (size_t j = 0; j < kScanChunk; ++j) {
      bad |= offsets[i + j] > offsets[i + j + 1];
    }
  }
  for (; i < pairs; ++i) bad |= offsets[i] > offsets[i + 1];
  return bad != 0;
}

/// True when some id is >= n.
bool AnyAtLeast(std::span<const NodeId> ids, uint64_t n) {
  if (n > std::numeric_limits<NodeId>::max()) return false;
  const NodeId limit = static_cast<NodeId>(n);
  NodeId bad = 0;
  size_t i = 0;
  for (; i + kScanChunk <= ids.size(); i += kScanChunk) {
    for (size_t j = 0; j < kScanChunk; ++j) bad |= ids[i + j] >= limit;
  }
  for (; i < ids.size(); ++i) bad |= ids[i] >= limit;
  return bad != 0;
}

}  // namespace

Result<std::shared_ptr<const GraphStorage>> MmapCsrStorage::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError(Errno("open " + path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Status::IoError(Errno("fstat " + path));
    ::close(fd);
    return s;
  }
  const uint64_t file_len = static_cast<uint64_t>(st.st_size);
  auto fail = [&](Status s) -> Result<std::shared_ptr<const GraphStorage>> {
    ::close(fd);
    return s;
  };
  if (file_len < sizeof(CsrHeader)) {
    return fail(Status::IoError(path + ": truncated CSR header"));
  }
  void* map = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (map == MAP_FAILED) return Status::IoError(Errno("mmap " + path));

  std::shared_ptr<MmapCsrStorage> storage(new MmapCsrStorage());
  storage->map_ = map;
  storage->map_len_ = file_len;

  CsrHeader header;
  std::memcpy(&header, map, sizeof(header));
  if (header.magic != kCsrBinaryMagic) {
    return Status::InvalidArgument(path + ": not an MCECSR02 graph file");
  }
  if (header.num_nodes > kInvalidNode) {
    return Status::OutOfRange(path + ": node count exceeds NodeId range");
  }
  const uint64_t n = header.num_nodes;
  const uint64_t expected = CsrFileBytes(n, header.num_edges);
  if (file_len != expected) {
    return Status::IoError(path + ": file size " + std::to_string(file_len) +
                           " does not match header (expected " +
                           std::to_string(expected) + ")");
  }
  const auto* offsets =
      reinterpret_cast<const uint64_t*>(static_cast<const char*>(map) +
                                        sizeof(CsrHeader));
  const auto* adjacency = reinterpret_cast<const NodeId*>(offsets + (n + 1));
  storage->offsets_ = {offsets, offsets + n + 1};
  storage->adjacency_ = {adjacency, adjacency + 2 * header.num_edges};
  MCE_RETURN_NOT_OK(ValidateCsr(path, storage->offsets_, storage->adjacency_));
  return std::shared_ptr<const GraphStorage>(std::move(storage));
}

uint64_t CsrFileBytes(uint64_t n, uint64_t m) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  if (n >= kMax / sizeof(uint64_t) - 1) return kMax;
  const uint64_t fixed = sizeof(CsrHeader) + (n + 1) * sizeof(uint64_t);
  if (m > (kMax - fixed) / (2 * sizeof(NodeId))) return kMax;
  return fixed + m * 2 * sizeof(NodeId);
}

Status ValidateCsr(const std::string& path, std::span<const uint64_t> offsets,
                   std::span<const NodeId> adjacency) {
  const uint64_t n = offsets.size() - 1;
  if (offsets.front() != 0 || offsets.back() != adjacency.size()) {
    return Status::InvalidArgument(path + ": inconsistent CSR offsets");
  }
  if (AnyDescending(offsets)) {
    return Status::InvalidArgument(path + ": non-monotone CSR offsets");
  }
  if (AnyAtLeast(adjacency, n)) {
    return Status::InvalidArgument(path + ": neighbor id out of range");
  }
  return Status::OK();
}

MmapCsrStorage::~MmapCsrStorage() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

const std::shared_ptr<const GraphStorage>& EmptyGraphStorage() {
  static const auto* empty = new std::shared_ptr<const GraphStorage>(
      std::make_shared<OwnedCsrStorage>(std::vector<uint64_t>{0},
                                        std::vector<NodeId>{}));
  return *empty;
}

}  // namespace mce
