// Per-node sequence-number table of the heartbeat path.
//
// Every heartbeat carries three (NodeId -> seq) tables, and every receiver
// keeps one row per member in its stability ack matrix. The wire layout is
// that of net::encode_node_u64_map over a std::map: entries ascend by key,
// which is FlatMap's iteration order, and decoding goes through
// SeqTable::from_entries (sorted, last duplicate wins) — so a peer's
// unsorted or repetitive frame decodes as the std::map decode always did.
#pragma once

#include <cstdint>

#include "gcs/flat_map.hpp"
#include "net/node.hpp"

namespace aqueduct::gcs {

using SeqTable = FlatMap<net::NodeId, std::uint64_t>;

}  // namespace aqueduct::gcs
