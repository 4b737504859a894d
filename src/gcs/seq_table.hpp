// Flat per-node sequence-number table of the heartbeat path.
//
// Every heartbeat carries three (NodeId -> seq) tables and every receiver
// keeps one row per member in its stability ack matrix. They hold one entry
// per group member (a handful), are rebuilt on every heartbeat, and are
// read by key a few times each — so a sorted vector of pairs replaces the
// node-per-entry std::map. The surface is the slice of std::map that the
// protocol and its tests use: operator[], find, ascending iteration, size,
// == and brace initialisation (first duplicate kept, as std::map's
// initializer-list constructor does).
//
// The wire layout is that of net::encode_node_u64_map over a std::map:
// entries ascend by key. from_entries() rebuilds a table from decoded
// entries with std::map's `m[k] = v` semantics — sorted, last duplicate
// wins — so a peer's unsorted or repetitive frame decodes as it always did.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "sim/check.hpp"

namespace aqueduct::gcs {

class SeqTable {
 public:
  using value_type = std::pair<net::NodeId, std::uint64_t>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  SeqTable() = default;
  SeqTable(std::initializer_list<value_type> init) {
    entries_.reserve(init.size());
    for (const value_type& e : init) {
      const iterator it = lower_bound(e.first);
      if (it == entries_.end() || it->first != e.first) entries_.insert(it, e);
    }
  }

  /// A table of decoded `entries`, in any order: sorted by key, and the
  /// last of several entries for one key wins.
  static SeqTable from_entries(std::vector<value_type> entries) {
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
        *out++ = *it;
      }
      entries.erase(out, entries.end());
    }
    SeqTable table;
    table.entries_ = std::move(entries);
    return table;
  }

  /// The value for `node`, inserted as 0 if absent.
  std::uint64_t& operator[](net::NodeId node) {
    iterator it = lower_bound(node);
    if (it == entries_.end() || it->first != node) {
      it = entries_.insert(it, value_type{node, 0});
    }
    return it->second;
  }

  /// Appends an entry whose key is above every key already present (the
  /// heartbeat builds its tables from ascending std::map iteration).
  void append(net::NodeId node, std::uint64_t seq) {
    AQUEDUCT_CHECK(entries_.empty() || entries_.back().first < node);
    entries_.emplace_back(node, seq);
  }

  const_iterator find(net::NodeId node) const {
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), node,
                                     KeyLess{});
    return it != entries_.end() && it->first == node ? it : entries_.end();
  }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  friend bool operator==(const SeqTable&, const SeqTable&) = default;

 private:
  struct KeyLess {
    bool operator()(const value_type& e, net::NodeId node) const {
      return e.first < node;
    }
  };
  iterator lower_bound(net::NodeId node) {
    return std::lower_bound(entries_.begin(), entries_.end(), node, KeyLess{});
  }

  std::vector<value_type> entries_;  // ascending by key, keys unique
};

}  // namespace aqueduct::gcs
