#ifndef AUTHDB_INDEX_BTREE_H_
#define AUTHDB_INDEX_BTREE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace authdb {

/// Disk-based B+-tree with int64 keys and fixed-size opaque payloads.
///
/// This is the index substrate of the paper's Section 3.2 (Figure 2): the
/// ASign index stores <key, signature, rid> in its leaves (payload = 24
/// bytes), while the EMB-tree baseline wraps this layout with embedded
/// digests. Keys are unique; leaves are doubly linked so range queries can
/// produce the left/right *boundary records* that completeness proofs
/// require.
///
/// Page 0 of the underlying file holds the tree metadata; an existing file
/// is reopened (payload size must match). Pages freed by merges and by a
/// collapsed root form a free list, chained through the freed pages with
/// its head in the metadata, so a reopened tree reuses them too; new nodes
/// take a free page before the file grows.
class BPlusTree {
 public:
  BPlusTree(BufferPool* pool, uint32_t payload_size);

  struct Entry {
    int64_t key;
    std::vector<uint8_t> payload;
  };

  /// Result of a range scan [lo, hi], plus the paper's boundary records:
  /// the record immediately to the left of lo and immediately to the right
  /// of hi in key order (absent at the domain edges).
  struct ScanResult {
    std::optional<Entry> left_boundary;
    std::optional<Entry> right_boundary;
    std::vector<Entry> entries;
  };

  Status Insert(int64_t key, Slice payload);      // kAlreadyExists on dup
  Status Update(int64_t key, Slice payload);      // kNotFound if absent
  Status Upsert(int64_t key, Slice payload);
  Status Delete(int64_t key);                     // kNotFound if absent
  Result<std::vector<uint8_t>> Get(int64_t key) const;
  bool Contains(int64_t key) const;

  /// Inclusive range scan with boundary records.
  ScanResult Scan(int64_t lo, int64_t hi) const;
  /// All entries in key order (used by joins and bulk certification).
  std::vector<Entry> ScanAll() const;
  /// The keys in [lo, hi], ascending, read straight off the leaf pages:
  /// no payload is copied and no boundary entry is looked up.
  std::vector<int64_t> KeysIn(int64_t lo, int64_t hi) const;

  uint64_t size() const { return num_entries_; }
  uint32_t height() const { return height_; }
  uint32_t payload_size() const { return payload_size_; }
  uint32_t leaf_capacity() const { return leaf_cap_; }
  uint32_t internal_capacity() const { return internal_cap_; }

  /// Structural invariant checker (tests): sorted keys, fanout bounds,
  /// consistent leaf chain, correct height. Dies on violation.
  void CheckInvariants() const;

 private:
  // Decoded node image. Nodes are read/modified/written as whole pages —
  // simple and safe; the buffer pool absorbs the copies.
  struct Node {
    PageId id = kInvalidPageId;
    bool is_leaf = true;
    PageId prev = kInvalidPageId, next = kInvalidPageId;
    std::vector<int64_t> keys;
    std::vector<PageId> children;                  // internal: keys+1
    std::vector<std::vector<uint8_t>> payloads;    // leaf
  };

  Node LoadNode(PageId id) const;
  void StoreNode(const Node& node) const;
  /// A page for a new node: the free list's head, else a new page.
  PageId AllocNode();
  /// Pushes a page no node uses any more onto the free list.
  void FreeNode(PageId id);
  void LoadMeta();
  void StoreMeta() const;

  // Returns true if the child split; fills sep/new_page.
  bool InsertRec(PageId pid, int64_t key, Slice payload, Status* status,
                 int64_t* sep, PageId* new_page);
  // Returns true if the node underflowed (caller rebalances).
  bool DeleteRec(PageId pid, int64_t key, Status* status);
  void RebalanceChild(Node* parent, size_t child_idx);

  /// Leaf that would contain `key` (first leaf with last key >= key).
  Node FindLeaf(int64_t key) const;
  /// FindLeaf's page id, without decoding the leaf.
  PageId FindLeafId(int64_t key) const;

  BufferPool* pool_;
  uint32_t payload_size_;
  uint32_t leaf_cap_, internal_cap_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 1;       // number of levels (leaf-only tree = 1)
  uint64_t num_entries_ = 0;
  // Head of the free-page list; page 0 (the metadata) is never free, so
  // kNoFreePage ends the list.
  static constexpr PageId kNoFreePage = 0;
  PageId free_head_ = kNoFreePage;
};

}  // namespace authdb

#endif  // AUTHDB_INDEX_BTREE_H_
