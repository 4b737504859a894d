// The address book of a multi-process deployment (live_cli --role): every
// process gets the same "NAME=HOST:PORT" entries, and an entry's name fixes
// the node's role, its slot in the ScenarioConfig layout and its NodeId,
// so the book needs no coordination service.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/scenario.hpp"
#include "net/node.hpp"

namespace aqueduct::harness {

/// HOST:PORT with HOST a dotted IPv4 address or "localhost" and PORT in
/// 1..65535. `ipv4` is HOST resolved, so both spellings of loopback name
/// one address.
struct Address {
  std::string host;
  std::uint16_t port = 0;
  std::uint32_t ipv4 = 0;
};
std::optional<Address> parse_address(std::string_view text);

/// The role a --role name ("sequencer", "primary", "secondary", "client")
/// stands for.
std::optional<Role> parse_role(std::string_view name);

/// One entry: sequencer -> n1, primaryN -> n(1+N) (N in 1..8),
/// secondaryN -> n(10+N), clientN -> n(20+N) (N in 1..9), and roleN is
/// NodeSpec index N - 1 of shard 0.
struct Peer {
  std::string name;
  NodeSpec node;
  net::NodeId id;
  Address address;
};

class AddressBook {
 public:
  /// Adds one "NAME=HOST:PORT" entry, or returns why not: a malformed
  /// entry, an unknown name, a bad address, or a name or address already
  /// in the book.
  std::string add(std::string_view entry);

  const std::vector<Peer>& peers() const { return peers_; }
  /// The entry at `address`, or nullptr.
  const Peer* find(const Address& address) const;
  /// The highest N among the book's roleN entries (0 if none).
  std::size_t count(Role role) const;

 private:
  std::vector<Peer> peers_;
};

}  // namespace aqueduct::harness
