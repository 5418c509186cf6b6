#include "huffman/huffman.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/byte_io.h"
#include "common/error.h"

namespace ceresz::huffman {

namespace {

// Node of the temporary Huffman tree (index-linked, heap-selected).
struct Node {
  u64 weight;
  i32 left = -1;
  i32 right = -1;
  u32 symbol = 0;
  bool leaf = false;
};

void collect_depths(const std::vector<Node>& nodes, i32 root, int depth,
                    std::vector<std::pair<u32, int>>& out) {
  const Node& n = nodes[root];
  if (n.leaf) {
    out.emplace_back(n.symbol, std::max(depth, 1));
    return;
  }
  collect_depths(nodes, n.left, depth + 1, out);
  collect_depths(nodes, n.right, depth + 1, out);
}

}  // namespace

HuffmanCodec HuffmanCodec::from_histogram(
    const std::unordered_map<u32, u64>& histogram) {
  CERESZ_CHECK(!histogram.empty(), "HuffmanCodec: empty histogram");

  std::vector<Node> nodes;
  nodes.reserve(histogram.size() * 2);
  using HeapItem = std::pair<u64, i32>;  // (weight, node index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  // Deterministic tree: insert symbols in sorted order.
  std::vector<std::pair<u32, u64>> sorted(histogram.begin(), histogram.end());
  std::sort(sorted.begin(), sorted.end());
  for (auto [symbol, weight] : sorted) {
    CERESZ_CHECK(weight > 0, "HuffmanCodec: zero-count symbol in histogram");
    Node n;
    n.weight = weight;
    n.symbol = symbol;
    n.leaf = true;
    nodes.push_back(n);
    heap.emplace(weight, static_cast<i32>(nodes.size() - 1));
  }

  while (heap.size() > 1) {
    auto [wa, a] = heap.top();
    heap.pop();
    auto [wb, b] = heap.top();
    heap.pop();
    Node parent;
    parent.weight = wa + wb;
    parent.left = a;
    parent.right = b;
    nodes.push_back(parent);
    heap.emplace(parent.weight, static_cast<i32>(nodes.size() - 1));
  }

  HuffmanCodec codec;
  collect_depths(nodes, heap.top().second, 0, codec.lengths_);

  // Length-limit: clamp overlong codes, then repair the Kraft sum by
  // lengthening the shortest codes until sum(2^-len) <= 1.
  bool clamped = false;
  for (auto& [sym, len] : codec.lengths_) {
    if (len > kMaxCodeLen) {
      len = kMaxCodeLen;
      clamped = true;
    }
  }
  if (clamped) {
    auto kraft = [&]() {
      long double s = 0;
      for (auto& [sym, len] : codec.lengths_) s += std::pow(2.0L, -len);
      return s;
    };
    std::sort(codec.lengths_.begin(), codec.lengths_.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    std::size_t i = 0;
    while (kraft() > 1.0L) {
      while (codec.lengths_[i].second >= kMaxCodeLen) {
        i = (i + 1) % codec.lengths_.size();
      }
      ++codec.lengths_[i].second;
      i = (i + 1) % codec.lengths_.size();
    }
  }

  codec.assign_canonical_codes();
  return codec;
}

HuffmanCodec HuffmanCodec::from_symbols(std::span<const u32> symbols) {
  std::unordered_map<u32, u64> hist;
  for (u32 s : symbols) ++hist[s];
  return from_histogram(hist);
}

void HuffmanCodec::assign_canonical_codes() {
  std::sort(lengths_.begin(), lengths_.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  max_len_ = lengths_.back().second;
  CERESZ_CHECK(max_len_ <= kMaxCodeLen, "HuffmanCodec: code length overflow");

  first_code_.assign(max_len_ + 1, 0);
  first_index_.assign(max_len_ + 1, 0);
  count_.assign(max_len_ + 1, 0);
  symbols_.clear();
  symbols_.reserve(lengths_.size());
  codes_.clear();

  u64 code = 0;
  int prev_len = lengths_.front().second;
  first_code_[prev_len] = 0;
  first_index_[prev_len] = 0;
  for (std::size_t i = 0; i < lengths_.size(); ++i) {
    const auto [symbol, len] = lengths_[i];
    if (len != prev_len) {
      code <<= (len - prev_len);
      first_code_[len] = code;
      first_index_[len] = static_cast<u32>(i);
      prev_len = len;
    }
    ++count_[len];
    codes_[symbol] = {code, len};
    symbols_.push_back(symbol);
    ++code;
  }
}

void HuffmanCodec::serialize_table(std::vector<u8>& out) const {
  ByteWriter w(out);
  w.put_u32(static_cast<u32>(lengths_.size()));
  for (const auto& [symbol, len] : lengths_) {
    w.put_u32(symbol);
    w.put_u8(static_cast<u8>(len));
  }
}

HuffmanCodec HuffmanCodec::deserialize_table(std::span<const u8> in,
                                             std::size_t& consumed) {
  ByteReader r(in, "HuffmanCodec: table");
  const u32 n = r.get_u32();
  CERESZ_CHECK(n > 0, "HuffmanCodec: empty table");
  // Bound the entry count by the input before reserving for it.
  ByteReader entries(r.elements(n, 5), "HuffmanCodec: table entries");

  HuffmanCodec codec;
  codec.lengths_.reserve(n);
  for (u32 i = 0; i < n; ++i) {
    const u32 symbol = entries.get_u32();
    const int len = entries.get_u8();
    CERESZ_CHECK(len >= 1 && len <= kMaxCodeLen,
                 "HuffmanCodec: corrupt code length");
    codec.lengths_.emplace_back(symbol, len);
  }
  consumed = r.position();
  codec.assign_canonical_codes();
  return codec;
}

void HuffmanCodec::encode_one(u32 symbol, BitWriter& writer) const {
  auto it = codes_.find(symbol);
  CERESZ_CHECK(it != codes_.end(),
               "HuffmanCodec: symbol not present in the code table");
  const auto [code, len] = it->second;
  // Emit MSB-first so canonical decoding can compare code prefixes.
  for (int b = len - 1; b >= 0; --b) {
    writer.put((code >> b) & 1ull, 1);
  }
}

void HuffmanCodec::encode(std::span<const u32> symbols,
                          BitWriter& writer) const {
  for (u32 s : symbols) encode_one(s, writer);
}

u32 HuffmanCodec::decode_one(BitReader& reader) const {
  u64 code = 0;
  int len = 0;
  for (;;) {
    code = (code << 1) | reader.get(1);
    ++len;
    CERESZ_CHECK(len <= max_len_, "HuffmanCodec: invalid code in stream");
    // Canonical property: a bit pattern of length `len` is a valid code
    // iff codes of that length exist and it falls inside their range.
    if (count_[len] > 0 && code >= first_code_[len] &&
        code < first_code_[len] + count_[len]) {
      return symbols_[first_index_[len] +
                      static_cast<u32>(code - first_code_[len])];
    }
  }
}

std::vector<u32> HuffmanCodec::decode(BitReader& reader,
                                      std::size_t count) const {
  std::vector<u32> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(decode_one(reader));
  return out;
}

int HuffmanCodec::code_length(u32 symbol) const {
  auto it = codes_.find(symbol);
  return it == codes_.end() ? 0 : it->second.second;
}

}  // namespace ceresz::huffman
