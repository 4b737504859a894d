// Sorted-vector map for the group protocol's per-peer tables.
//
// Every table a Member keys by peer — heartbeat ack rows, receive
// channels, send buffers, failure-detector timestamps — holds one entry
// per group member (a handful), and the receive path reads them on every
// message. A sorted vector of pairs replaces the node-per-entry std::map:
// a lookup is a binary search over contiguous memory, and iteration
// ascends by key exactly as std::map's does, so anything built by walking
// a table (a heartbeat's ack tables, a flush's held messages) comes out in
// the same order.
//
// The surface is the slice of std::map the protocol, its codec and its
// tests use: operator[], find, contains, ascending iteration, size, ==,
// brace initialisation (first duplicate kept, as std::map's
// initializer-list constructor does), and an erase_if overload found by
// argument-dependent lookup.
//
// Invalidation differs from std::map: operator[] on a key that is absent
// inserts into the vector and so invalidates every reference, pointer and
// iterator into the table. A caller holding a reference to an entry must
// not insert into the same table (directly or through a callee) while it
// uses that reference. Keys must not be modified through iterators.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace aqueduct::gcs {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  FlatMap(std::initializer_list<value_type> init) {
    entries_.reserve(init.size());
    for (const value_type& e : init) {
      const iterator it = lower_bound(e.first);
      if (it == entries_.end() || it->first != e.first) entries_.insert(it, e);
    }
  }

  /// A table of decoded `entries`, in any order: sorted by key, and the
  /// last of several entries for one key wins (std::map's `m[k] = v`).
  static FlatMap from_entries(std::vector<value_type> entries) {
    const auto not_ascending = [](const value_type& a, const value_type& b) {
      return !(a.first < b.first);
    };
    if (std::adjacent_find(entries.begin(), entries.end(), not_ascending) !=
        entries.end()) {
      std::stable_sort(entries.begin(), entries.end(),
                       [](const value_type& a, const value_type& b) {
                         return a.first < b.first;
                       });
      auto out = entries.begin();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        const auto next = std::next(it);
        if (next != entries.end() && next->first == it->first) continue;
        if (out != it) *out = std::move(*it);
        ++out;
      }
      entries.erase(out, entries.end());
    }
    FlatMap table;
    table.entries_ = std::move(entries);
    return table;
  }

  /// The value for `key`, value-initialised and inserted if absent (the
  /// insert invalidates references into this table).
  V& operator[](const K& key) {
    iterator it = lower_bound(key);
    if (it == entries_.end() || it->first != key) {
      it = entries_.insert(it, value_type{key, V{}});
    }
    return it->second;
  }

  /// Appends an entry whose key is above every key already present (for
  /// tables built by walking another table in key order).
  void append(const K& key, V value) {
    AQUEDUCT_CHECK(entries_.empty() || entries_.back().first < key);
    entries_.emplace_back(key, std::move(value));
  }

  iterator find(const K& key) {
    const iterator it = lower_bound(key);
    return it != entries_.end() && it->first == key ? it : entries_.end();
  }
  const_iterator find(const K& key) const {
    const auto it =
        std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess{});
    return it != entries_.end() && it->first == key ? it : entries_.end();
  }
  bool contains(const K& key) const { return find(key) != end(); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  void reserve(std::size_t n) { entries_.reserve(n); }
  void clear() { entries_.clear(); }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

  /// Removes every entry (a key/value pair) that satisfies `pred`.
  template <typename Pred>
  friend std::size_t erase_if(FlatMap& table, Pred pred) {
    return std::erase_if(table.entries_, pred);
  }

 private:
  struct KeyLess {
    bool operator()(const value_type& e, const K& key) const {
      return e.first < key;
    }
  };
  iterator lower_bound(const K& key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess{});
  }

  std::vector<value_type> entries_;  // ascending by key, keys unique
};

}  // namespace aqueduct::gcs
