#include "graph/io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "graph/builder.h"

namespace mce {

namespace {

constexpr uint64_t kBinaryMagic = 0x4d43454752463031ULL;  // "MCEGRF01"

bool IsCommentOrBlank(const std::string& line) {
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c == '#' || c == '%';
  }
  return true;  // blank
}

/// True when `ss` still holds a non-whitespace token after the expected
/// fields were extracted — a malformed line that must be rejected rather
/// than silently truncated (e.g. "0 1.5" parses ids 0 and 1, leaving ".5").
bool HasTrailingGarbage(std::istringstream& ss) {
  std::string rest;
  return static_cast<bool>(ss >> rest);
}

}  // namespace

NodeId LabelInterner::Intern(const std::string& label) {
  auto [it, inserted] =
      index_.emplace(label, static_cast<NodeId>(labels_.size()));
  if (inserted) labels_.push_back(label);
  return it->second;
}

NodeId LabelInterner::Lookup(const std::string& label) const {
  auto it = index_.find(label);
  return it == index_.end() ? kInvalidNode : it->second;
}

Result<Graph> ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  GraphBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream ss(line);
    uint64_t u = 0, v = 0;
    if (!(ss >> u >> v)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": expected 'u v'");
    }
    if (HasTrailingGarbage(ss)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": trailing tokens after 'u v'");
    }
    if (u > kInvalidNode - 1 || v > kInvalidNode - 1) {
      return Status::OutOfRange(path + ":" + std::to_string(line_no) +
                                ": node id exceeds 32-bit range");
    }
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  if (in.bad()) return Status::IoError("read error on " + path);
  return builder.Build();
}

Status WriteEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Result<LabeledGraph> ReadTriples(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  LabelInterner nodes;
  std::unordered_set<std::string> edge_label_set;
  std::vector<std::string> edge_labels;
  GraphBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream ss(line);
    std::string n1, e, n2;
    if (!(ss >> n1 >> e >> n2)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": expected '<n1> <e> <n2>'");
    }
    if (HasTrailingGarbage(ss)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": trailing tokens after '<n1> <e> <n2>'");
    }
    // Intern in textual order (argument evaluation order is unspecified).
    const NodeId id1 = nodes.Intern(n1);
    const NodeId id2 = nodes.Intern(n2);
    builder.AddEdge(id1, id2);
    if (edge_label_set.insert(e).second) edge_labels.push_back(e);
  }
  if (in.bad()) return Status::IoError("read error on " + path);
  // Interning may have seen isolated... every label came from an edge, but a
  // self-loop line still interns its label; make the graph cover all of them.
  builder.ReserveNodes(static_cast<NodeId>(nodes.size()));
  LabeledGraph out;
  out.graph = builder.Build();
  out.labels = nodes.labels();
  out.edge_labels = std::move(edge_labels);
  return out;
}

Status WriteTriples(const LabeledGraph& g, const std::string& path) {
  if (g.labels.size() != g.graph.num_nodes()) {
    return Status::InvalidArgument("label table size != node count");
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const std::string edge_label =
      g.edge_labels.empty() ? std::string("e") : g.edge_labels.front();
  for (NodeId u = 0; u < g.graph.num_nodes(); ++u) {
    for (NodeId v : g.graph.Neighbors(u)) {
      if (u < v) {
        out << g.labels[u] << ' ' << edge_label << ' ' << g.labels[v] << '\n';
      }
    }
  }
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Status WriteDot(const Graph& g, const std::string& path,
                const std::vector<std::string>& labels,
                const std::vector<NodeId>& highlight) {
  if (!labels.empty() && labels.size() != g.num_nodes()) {
    return Status::InvalidArgument("label table size != node count");
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  std::vector<uint8_t> is_highlighted(g.num_nodes(), 0);
  for (NodeId v : highlight) {
    if (v >= g.num_nodes()) {
      return Status::OutOfRange("highlight node out of range");
    }
    is_highlighted[v] = 1;
  }
  out << "graph mce {\n  node [shape=circle];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "  n" << v;
    out << " [";
    if (!labels.empty()) out << "label=\"" << labels[v] << "\"";
    if (is_highlighted[v]) {
      if (!labels.empty()) out << ", ";
      out << "style=filled, fillcolor=lightblue";
    }
    out << "];\n";
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) out << "  n" << u << " -- n" << v << ";\n";
    }
  }
  out << "}\n";
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Status WriteBinary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  out.write(reinterpret_cast<const char*>(&kBinaryMagic), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&n), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&m), sizeof(uint64_t));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) {
        out.write(reinterpret_cast<const char*>(&u), sizeof(NodeId));
        out.write(reinterpret_cast<const char*>(&v), sizeof(NodeId));
      }
    }
  }
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Result<Graph> ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint64_t magic = 0, n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&n), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&m), sizeof(uint64_t));
  if (!in || magic != kBinaryMagic) {
    return Status::InvalidArgument(path + ": not an mce binary graph");
  }
  if (n > kInvalidNode) {
    return Status::OutOfRange(path + ": node count exceeds 32-bit range");
  }
  GraphBuilder builder(static_cast<NodeId>(n));
  builder.ReserveEdges(m);
  for (uint64_t i = 0; i < m; ++i) {
    NodeId u = 0, v = 0;
    in.read(reinterpret_cast<char*>(&u), sizeof(NodeId));
    in.read(reinterpret_cast<char*>(&v), sizeof(NodeId));
    if (!in) return Status::IoError(path + ": truncated edge section");
    if (u >= n || v >= n) {
      return Status::InvalidArgument(path + ": edge endpoint out of range");
    }
    builder.AddEdge(u, v);
  }
  return builder.Build();
}

Status WriteCsrBinary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  const uint64_t reserved = 0;
  out.write(reinterpret_cast<const char*>(&kCsrBinaryMagic), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&n), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&m), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&reserved), sizeof(uint64_t));
  const std::span<const uint64_t> offsets = g.storage().offsets();
  const std::span<const NodeId> adjacency = g.storage().adjacency();
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
  out.write(reinterpret_cast<const char*>(adjacency.data()),
            static_cast<std::streamsize>(adjacency.size() * sizeof(NodeId)));
  out.flush();
  if (!out) return Status::IoError("write error on " + path);
  return Status::OK();
}

Result<Graph> ReadCsrBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const uint64_t file_len = static_cast<uint64_t>(in.tellg());
  in.seekg(0);
  uint64_t magic = 0, n = 0, m = 0, reserved = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&n), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&m), sizeof(uint64_t));
  in.read(reinterpret_cast<char*>(&reserved), sizeof(uint64_t));
  if (!in || magic != kCsrBinaryMagic) {
    return Status::InvalidArgument(path + ": not an MCECSR02 graph file");
  }
  if (n > kInvalidNode) {
    return Status::OutOfRange(path + ": node count exceeds 32-bit range");
  }
  // The size check bounds both allocations below by the file itself, so a
  // corrupt header cannot request more memory than the file holds.
  if (file_len != CsrFileBytes(n, m)) {
    return Status::IoError(path + ": file size " + std::to_string(file_len) +
                           " does not match header");
  }
  std::vector<uint64_t> offsets(n + 1);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
  std::vector<NodeId> adjacency(2 * m);
  in.read(reinterpret_cast<char*>(adjacency.data()),
          static_cast<std::streamsize>(adjacency.size() * sizeof(NodeId)));
  if (!in) return Status::IoError("read error on " + path);
  MCE_RETURN_NOT_OK(ValidateCsr(path, offsets, adjacency));
  return Graph::FromSortedCsr(std::move(offsets), std::move(adjacency));
}

Result<Graph> OpenMmapGraph(const std::string& path) {
  MCE_ASSIGN_OR_RETURN(std::shared_ptr<const GraphStorage> storage,
                       MmapCsrStorage::Open(path));
  return Graph::FromStorage(std::move(storage));
}

}  // namespace mce
