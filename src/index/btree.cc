#include "index/btree.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace authdb {

namespace {
constexpr uint32_t kMagic = 0xADB7EE01;
constexpr size_t kNodeHeader = 12;  // is_leaf u8, pad u8, count u16, prev, next
// Meta page offsets.
constexpr size_t kMetaMagic = 0, kMetaRoot = 4, kMetaHeight = 8,
                 kMetaPayload = 12, kMetaCount = 16, kMetaFreeHead = 24;
// A freed page holds the id of the next free page here.
constexpr size_t kFreeNext = 0;
}  // namespace

BPlusTree::BPlusTree(BufferPool* pool, uint32_t payload_size)
    : pool_(pool), payload_size_(payload_size) {
  leaf_cap_ = (kPageSize - kNodeHeader) / (8 + payload_size_);
  internal_cap_ = (kPageSize - kNodeHeader - 4) / 12;
  AUTHDB_CHECK(leaf_cap_ >= 3 && internal_cap_ >= 3);
  if (pool_->disk()->page_count() == 0) {
    Page* meta = pool_->New();  // page 0
    AUTHDB_CHECK(meta->id == 0);
    pool_->Unpin(meta, true);
    Node root;
    root.id = AllocNode();
    root.is_leaf = true;
    StoreNode(root);
    root_ = root.id;
    height_ = 1;
    num_entries_ = 0;
    StoreMeta();
  } else {
    LoadMeta();
  }
}

void BPlusTree::LoadMeta() {
  Page* meta = pool_->Fetch(0);
  AUTHDB_CHECK(meta->ReadAt<uint32_t>(kMetaMagic) == kMagic);
  root_ = meta->ReadAt<uint32_t>(kMetaRoot);
  height_ = meta->ReadAt<uint32_t>(kMetaHeight);
  uint32_t stored_payload = meta->ReadAt<uint32_t>(kMetaPayload);
  AUTHDB_CHECK(stored_payload == payload_size_);
  num_entries_ = meta->ReadAt<uint64_t>(kMetaCount);
  free_head_ = meta->ReadAt<PageId>(kMetaFreeHead);
  pool_->Unpin(meta, false);
}

void BPlusTree::StoreMeta() const {
  Page* meta = pool_->Fetch(0);
  meta->WriteAt<uint32_t>(kMetaMagic, kMagic);
  meta->WriteAt<uint32_t>(kMetaRoot, root_);
  meta->WriteAt<uint32_t>(kMetaHeight, height_);
  meta->WriteAt<uint32_t>(kMetaPayload, payload_size_);
  meta->WriteAt<uint64_t>(kMetaCount, num_entries_);
  meta->WriteAt<PageId>(kMetaFreeHead, free_head_);
  pool_->Unpin(meta, true);
}

PageId BPlusTree::AllocNode() {
  if (free_head_ != kNoFreePage) {
    const PageId id = free_head_;
    Page* page = pool_->Fetch(id);
    free_head_ = page->ReadAt<PageId>(kFreeNext);
    pool_->Unpin(page, false);
    return id;
  }
  Page* page = pool_->New();
  PageId id = page->id;
  pool_->Unpin(page, true);
  return id;
}

void BPlusTree::FreeNode(PageId id) {
  AUTHDB_DCHECK(id != 0 && id != root_);
  Page* page = pool_->Fetch(id);
  page->WriteAt<PageId>(kFreeNext, free_head_);
  pool_->Unpin(page, true);
  free_head_ = id;
}

BPlusTree::Node BPlusTree::LoadNode(PageId id) const {
  Page* page = pool_->Fetch(id);
  Node node;
  node.id = id;
  node.is_leaf = page->ReadAt<uint8_t>(0) != 0;
  uint16_t count = page->ReadAt<uint16_t>(2);
  node.prev = page->ReadAt<PageId>(4);
  node.next = page->ReadAt<PageId>(8);
  if (node.is_leaf) {
    node.keys.resize(count);
    node.payloads.resize(count);
    size_t off = kNodeHeader;
    for (uint16_t i = 0; i < count; ++i) {
      node.keys[i] = page->ReadAt<int64_t>(off);
      off += 8;
      node.payloads[i].assign(page->bytes() + off,
                              page->bytes() + off + payload_size_);
      off += payload_size_;
    }
  } else {
    node.keys.resize(count);
    node.children.resize(count + 1);
    for (uint16_t i = 0; i < count; ++i)
      node.keys[i] = page->ReadAt<int64_t>(kNodeHeader + 8 * i);
    size_t child_off = kNodeHeader + 8 * internal_cap_;
    for (uint16_t i = 0; i <= count; ++i)
      node.children[i] = page->ReadAt<PageId>(child_off + 4 * i);
  }
  pool_->Unpin(page, false);
  return node;
}

void BPlusTree::StoreNode(const Node& node) const {
  Page* page = pool_->Fetch(node.id);
  page->WriteAt<uint8_t>(0, node.is_leaf ? 1 : 0);
  page->WriteAt<uint16_t>(2, static_cast<uint16_t>(node.keys.size()));
  page->WriteAt<PageId>(4, node.prev);
  page->WriteAt<PageId>(8, node.next);
  if (node.is_leaf) {
    size_t off = kNodeHeader;
    for (size_t i = 0; i < node.keys.size(); ++i) {
      page->WriteAt<int64_t>(off, node.keys[i]);
      off += 8;
      AUTHDB_DCHECK(node.payloads[i].size() == payload_size_);
      std::memcpy(page->bytes() + off, node.payloads[i].data(), payload_size_);
      off += payload_size_;
    }
  } else {
    for (size_t i = 0; i < node.keys.size(); ++i)
      page->WriteAt<int64_t>(kNodeHeader + 8 * i, node.keys[i]);
    size_t child_off = kNodeHeader + 8 * internal_cap_;
    for (size_t i = 0; i < node.children.size(); ++i)
      page->WriteAt<PageId>(child_off + 4 * i, node.children[i]);
  }
  pool_->Unpin(page, true);
}

// ---------------------------------------------------------------------------
// Insert

bool BPlusTree::InsertRec(PageId pid, int64_t key, Slice payload,
                          Status* status, int64_t* sep, PageId* new_page) {
  Node node = LoadNode(pid);
  if (node.is_leaf) {
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    size_t pos = it - node.keys.begin();
    if (it != node.keys.end() && *it == key) {
      *status = Status::AlreadyExists("key " + std::to_string(key));
      return false;
    }
    node.keys.insert(it, key);
    node.payloads.insert(node.payloads.begin() + pos, payload.ToBytes());
    *status = Status::OK();
    if (node.keys.size() <= leaf_cap_) {
      StoreNode(node);
      return false;
    }
    // Split: move upper half to a fresh right sibling.
    Node right;
    right.id = AllocNode();
    right.is_leaf = true;
    size_t mid = node.keys.size() / 2;
    right.keys.assign(node.keys.begin() + mid, node.keys.end());
    right.payloads.assign(node.payloads.begin() + mid, node.payloads.end());
    node.keys.resize(mid);
    node.payloads.resize(mid);
    right.next = node.next;
    right.prev = node.id;
    node.next = right.id;
    if (right.next != kInvalidPageId) {
      Node after = LoadNode(right.next);
      after.prev = right.id;
      StoreNode(after);
    }
    StoreNode(node);
    StoreNode(right);
    *sep = right.keys.front();
    *new_page = right.id;
    return true;
  }
  // Internal node.
  size_t idx =
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin();
  int64_t child_sep;
  PageId child_new;
  if (!InsertRec(node.children[idx], key, payload, status, &child_sep,
                 &child_new)) {
    return false;
  }
  node.keys.insert(node.keys.begin() + idx, child_sep);
  node.children.insert(node.children.begin() + idx + 1, child_new);
  if (node.keys.size() <= internal_cap_) {
    StoreNode(node);
    return false;
  }
  // Split internal: promote the middle key.
  Node right;
  right.id = AllocNode();
  right.is_leaf = false;
  size_t mid = node.keys.size() / 2;
  *sep = node.keys[mid];
  right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
  right.children.assign(node.children.begin() + mid + 1, node.children.end());
  node.keys.resize(mid);
  node.children.resize(mid + 1);
  StoreNode(node);
  StoreNode(right);
  *new_page = right.id;
  return true;
}

Status BPlusTree::Insert(int64_t key, Slice payload) {
  if (payload.size() != payload_size_)
    return Status::InvalidArgument("payload size mismatch");
  Status status;
  int64_t sep;
  PageId new_page;
  if (InsertRec(root_, key, payload, &status, &sep, &new_page)) {
    Node new_root;
    new_root.id = AllocNode();
    new_root.is_leaf = false;
    new_root.keys = {sep};
    new_root.children = {root_, new_page};
    StoreNode(new_root);
    root_ = new_root.id;
    ++height_;
  }
  if (status.ok()) {
    ++num_entries_;
    StoreMeta();
  }
  return status;
}

Status BPlusTree::Update(int64_t key, Slice payload) {
  if (payload.size() != payload_size_)
    return Status::InvalidArgument("payload size mismatch");
  Node leaf = FindLeaf(key);
  auto it = std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key);
  if (it == leaf.keys.end() || *it != key)
    return Status::NotFound("key " + std::to_string(key));
  leaf.payloads[it - leaf.keys.begin()] = payload.ToBytes();
  StoreNode(leaf);
  return Status::OK();
}

Status BPlusTree::Upsert(int64_t key, Slice payload) {
  Status s = Update(key, payload);
  if (s.IsNotFound()) return Insert(key, payload);
  return s;
}

// ---------------------------------------------------------------------------
// Delete

void BPlusTree::RebalanceChild(Node* parent, size_t child_idx) {
  Node child = LoadNode(parent->children[child_idx]);
  size_t min_keys = (child.is_leaf ? leaf_cap_ : internal_cap_) / 2;

  // Try borrowing from the left sibling.
  if (child_idx > 0) {
    Node left = LoadNode(parent->children[child_idx - 1]);
    if (left.keys.size() > min_keys) {
      if (child.is_leaf) {
        child.keys.insert(child.keys.begin(), left.keys.back());
        child.payloads.insert(child.payloads.begin(),
                              std::move(left.payloads.back()));
        left.keys.pop_back();
        left.payloads.pop_back();
        parent->keys[child_idx - 1] = child.keys.front();
      } else {
        child.keys.insert(child.keys.begin(), parent->keys[child_idx - 1]);
        parent->keys[child_idx - 1] = left.keys.back();
        left.keys.pop_back();
        child.children.insert(child.children.begin(), left.children.back());
        left.children.pop_back();
      }
      StoreNode(left);
      StoreNode(child);
      return;
    }
  }
  // Try borrowing from the right sibling.
  if (child_idx + 1 < parent->children.size()) {
    Node right = LoadNode(parent->children[child_idx + 1]);
    if (right.keys.size() > min_keys) {
      if (child.is_leaf) {
        child.keys.push_back(right.keys.front());
        child.payloads.push_back(std::move(right.payloads.front()));
        right.keys.erase(right.keys.begin());
        right.payloads.erase(right.payloads.begin());
        parent->keys[child_idx] = right.keys.front();
      } else {
        child.keys.push_back(parent->keys[child_idx]);
        parent->keys[child_idx] = right.keys.front();
        right.keys.erase(right.keys.begin());
        child.children.push_back(right.children.front());
        right.children.erase(right.children.begin());
      }
      StoreNode(right);
      StoreNode(child);
      return;
    }
  }
  // Merge; the merged-away page goes on the free list.
  if (child_idx > 0) {
    // Merge child into its left sibling.
    Node left = LoadNode(parent->children[child_idx - 1]);
    if (child.is_leaf) {
      left.keys.insert(left.keys.end(), child.keys.begin(), child.keys.end());
      for (auto& p : child.payloads) left.payloads.push_back(std::move(p));
      left.next = child.next;
      if (child.next != kInvalidPageId) {
        Node after = LoadNode(child.next);
        after.prev = left.id;
        StoreNode(after);
      }
    } else {
      left.keys.push_back(parent->keys[child_idx - 1]);
      left.keys.insert(left.keys.end(), child.keys.begin(), child.keys.end());
      left.children.insert(left.children.end(), child.children.begin(),
                           child.children.end());
    }
    parent->keys.erase(parent->keys.begin() + child_idx - 1);
    parent->children.erase(parent->children.begin() + child_idx);
    StoreNode(left);
    FreeNode(child.id);
  } else {
    // Merge the right sibling into child.
    Node right = LoadNode(parent->children[child_idx + 1]);
    if (child.is_leaf) {
      child.keys.insert(child.keys.end(), right.keys.begin(),
                        right.keys.end());
      for (auto& p : right.payloads) child.payloads.push_back(std::move(p));
      child.next = right.next;
      if (right.next != kInvalidPageId) {
        Node after = LoadNode(right.next);
        after.prev = child.id;
        StoreNode(after);
      }
    } else {
      child.keys.push_back(parent->keys[child_idx]);
      child.keys.insert(child.keys.end(), right.keys.begin(),
                        right.keys.end());
      child.children.insert(child.children.end(), right.children.begin(),
                            right.children.end());
    }
    parent->keys.erase(parent->keys.begin() + child_idx);
    parent->children.erase(parent->children.begin() + child_idx + 1);
    StoreNode(child);
    FreeNode(right.id);
  }
}

bool BPlusTree::DeleteRec(PageId pid, int64_t key, Status* status) {
  Node node = LoadNode(pid);
  if (node.is_leaf) {
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    if (it == node.keys.end() || *it != key) {
      *status = Status::NotFound("key " + std::to_string(key));
      return false;
    }
    size_t pos = it - node.keys.begin();
    node.keys.erase(it);
    node.payloads.erase(node.payloads.begin() + pos);
    StoreNode(node);
    *status = Status::OK();
    return node.keys.size() < leaf_cap_ / 2;
  }
  size_t idx =
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin();
  bool child_underflow = DeleteRec(node.children[idx], key, status);
  if (!status->ok()) return false;
  if (child_underflow) {
    RebalanceChild(&node, idx);
    StoreNode(node);
  }
  return node.keys.size() < internal_cap_ / 2;
}

Status BPlusTree::Delete(int64_t key) {
  Status status;
  DeleteRec(root_, key, &status);
  if (!status.ok()) return status;
  // Shrink the root if it became a trivial internal node.
  Node root = LoadNode(root_);
  if (!root.is_leaf && root.keys.empty()) {
    root_ = root.children[0];
    --height_;
    FreeNode(root.id);
  }
  --num_entries_;
  StoreMeta();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Lookups

PageId BPlusTree::FindLeafId(int64_t key) const {
  PageId id = root_;
  for (uint32_t level = 1; level < height_; ++level) {
    Node node = LoadNode(id);
    AUTHDB_DCHECK(!node.is_leaf);
    size_t idx =
        std::upper_bound(node.keys.begin(), node.keys.end(), key) -
        node.keys.begin();
    id = node.children[idx];
  }
  return id;
}

BPlusTree::Node BPlusTree::FindLeaf(int64_t key) const {
  return LoadNode(FindLeafId(key));
}

Result<std::vector<uint8_t>> BPlusTree::Get(int64_t key) const {
  Node leaf = FindLeaf(key);
  auto it = std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key);
  if (it == leaf.keys.end() || *it != key)
    return Status::NotFound("key " + std::to_string(key));
  return leaf.payloads[it - leaf.keys.begin()];
}

bool BPlusTree::Contains(int64_t key) const {
  Node leaf = FindLeaf(key);
  return std::binary_search(leaf.keys.begin(), leaf.keys.end(), key);
}

BPlusTree::ScanResult BPlusTree::Scan(int64_t lo, int64_t hi) const {
  ScanResult out;
  Node leaf = FindLeaf(lo);
  size_t pos =
      std::lower_bound(leaf.keys.begin(), leaf.keys.end(), lo) -
      leaf.keys.begin();
  // Left boundary: the entry immediately before (leaf, pos).
  if (pos > 0) {
    out.left_boundary = Entry{leaf.keys[pos - 1], leaf.payloads[pos - 1]};
  } else if (leaf.prev != kInvalidPageId) {
    Node prev = LoadNode(leaf.prev);
    if (!prev.keys.empty())
      out.left_boundary = Entry{prev.keys.back(), prev.payloads.back()};
  }
  // Walk forward collecting [lo, hi]; the first key beyond hi is the right
  // boundary.
  while (true) {
    if (pos >= leaf.keys.size()) {
      if (leaf.next == kInvalidPageId) break;
      leaf = LoadNode(leaf.next);
      pos = 0;
      continue;
    }
    if (leaf.keys[pos] > hi) {
      out.right_boundary = Entry{leaf.keys[pos], leaf.payloads[pos]};
      break;
    }
    out.entries.push_back(Entry{leaf.keys[pos], leaf.payloads[pos]});
    ++pos;
  }
  return out;
}

std::vector<int64_t> BPlusTree::KeysIn(int64_t lo, int64_t hi) const {
  std::vector<int64_t> out;
  if (lo > hi) return out;
  PageId id = FindLeafId(lo);
  while (id != kInvalidPageId) {
    Page* page = pool_->Fetch(id);
    const uint16_t count = page->ReadAt<uint16_t>(2);
    const size_t stride = 8 + payload_size_;
    bool past_hi = false;
    for (uint16_t i = 0; i < count; ++i) {
      const int64_t key = page->ReadAt<int64_t>(kNodeHeader + i * stride);
      if (key > hi) {
        past_hi = true;
        break;
      }
      if (key >= lo) out.push_back(key);
    }
    const PageId next = page->ReadAt<PageId>(8);
    pool_->Unpin(page, false);
    if (past_hi) break;
    id = next;
  }
  return out;
}

std::vector<BPlusTree::Entry> BPlusTree::ScanAll() const {
  std::vector<Entry> out;
  out.reserve(num_entries_);
  Node node = LoadNode(root_);
  while (!node.is_leaf) node = LoadNode(node.children.front());
  while (true) {
    for (size_t i = 0; i < node.keys.size(); ++i)
      out.push_back(Entry{node.keys[i], node.payloads[i]});
    if (node.next == kInvalidPageId) break;
    node = LoadNode(node.next);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Invariants

void BPlusTree::CheckInvariants() const {
  struct Frame {
    PageId pid;
    uint32_t depth;
    int64_t lo;
    int64_t hi;
    bool has_lo, has_hi;
  };
  std::vector<Frame> stack = {
      {root_, 1, 0, 0, false, false}};
  uint64_t leaf_entries = 0;
  uint32_t leaf_depth = 0;
  PageId first_leaf = kInvalidPageId;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    Node node = LoadNode(f.pid);
    AUTHDB_CHECK(std::is_sorted(node.keys.begin(), node.keys.end()));
    for (size_t i = 0; i + 1 < node.keys.size(); ++i)
      AUTHDB_CHECK(node.keys[i] != node.keys[i + 1]);
    if (f.has_lo && !node.keys.empty()) AUTHDB_CHECK(node.keys.front() >= f.lo);
    if (f.has_hi && !node.keys.empty()) AUTHDB_CHECK(node.keys.back() < f.hi);
    if (node.is_leaf) {
      if (leaf_depth == 0) leaf_depth = f.depth;
      AUTHDB_CHECK(leaf_depth == f.depth);  // all leaves at same depth
      AUTHDB_CHECK(f.depth == height_);
      leaf_entries += node.keys.size();
      if (node.prev == kInvalidPageId) first_leaf = node.id;
      if (f.pid != root_) AUTHDB_CHECK(node.keys.size() >= leaf_cap_ / 2);
    } else {
      AUTHDB_CHECK(node.children.size() == node.keys.size() + 1);
      if (f.pid != root_) {
        AUTHDB_CHECK(node.keys.size() >= internal_cap_ / 2);
      } else {
        AUTHDB_CHECK(!node.keys.empty());
      }
      for (size_t i = 0; i < node.children.size(); ++i) {
        Frame cf;
        cf.pid = node.children[i];
        cf.depth = f.depth + 1;
        cf.has_lo = i > 0 || f.has_lo;
        cf.lo = i > 0 ? node.keys[i - 1] : f.lo;
        cf.has_hi = i < node.keys.size() || f.has_hi;
        cf.hi = i < node.keys.size() ? node.keys[i] : f.hi;
        stack.push_back(cf);
      }
    }
  }
  AUTHDB_CHECK(leaf_entries == num_entries_);
  // Leaf chain covers all entries in sorted order.
  if (first_leaf != kInvalidPageId) {
    uint64_t chained = 0;
    int64_t prev_key = 0;
    bool have_prev = false;
    Node node = LoadNode(first_leaf);
    while (true) {
      for (int64_t k : node.keys) {
        if (have_prev) AUTHDB_CHECK(prev_key < k);
        prev_key = k;
        have_prev = true;
        ++chained;
      }
      if (node.next == kInvalidPageId) break;
      PageId prev_id = node.id;
      node = LoadNode(node.next);
      AUTHDB_CHECK(node.prev == prev_id);
    }
    AUTHDB_CHECK(chained == num_entries_);
  }
}

}  // namespace authdb
