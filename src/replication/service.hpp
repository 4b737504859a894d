// Replica organization (paper Section 3, Figure 1).
//
// A replicated service uses three process groups:
//   * the primary replication group — the sequencer (leader) plus the
//     primary replicas; updates are multicast here and committed in GSN
//     order (strong consistency);
//   * the replication group — every replica of the service; the sequencer
//     broadcasts GSN assignments here and the lazy publisher propagates
//     state updates here;
//   * the QoS group — every replica plus every client; requests, replies
//     and performance publications travel here.
//
// The service's ordering guarantee (paper Section 4, Fig. 2) is a policy
// of the one gateway stack, fixed per service alongside its group ids so
// that every ReplicaServer and ClientHandler of the service agrees on it.
#pragma once

#include <cstdint>

#include "core/qos.hpp"
#include "gcs/types.hpp"

namespace aqueduct::replication {

/// The three group ids of one replicated service, plus its ordering.
struct ServiceGroups {
  gcs::GroupId primary;      // sequencer + primary replicas
  gcs::GroupId replication;  // all replicas
  gcs::GroupId qos;          // all replicas + all clients
  /// kSequential: the primary-group leader is the sequencer and updates
  /// commit in GSN order. kFifo: no sequencer; every primary applies each
  /// client's updates in that client's issue order, and reads can wait for
  /// the client's own updates (read-your-writes) instead of a GSN.
  core::Ordering ordering = core::Ordering::kSequential;

  /// Convenience: carve three group ids out of a small integer service id.
  static ServiceGroups for_service(
      std::uint32_t service_id,
      core::Ordering ordering = core::Ordering::kSequential) {
    return ServiceGroups{gcs::GroupId{service_id * 16 + 1},
                         gcs::GroupId{service_id * 16 + 2},
                         gcs::GroupId{service_id * 16 + 3}, ordering};
  }
};

}  // namespace aqueduct::replication
