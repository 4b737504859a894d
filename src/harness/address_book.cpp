#include "harness/address_book.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>

#include <algorithm>

#include "harness/cli.hpp"

namespace aqueduct::harness {

namespace {

/// Each role's name, NodeId base and highest N (the sequencer is unnumbered).
struct RoleName {
  std::string_view name;
  Role role;
  std::uint32_t id_base;
  char max_n;
};
constexpr RoleName kRoleNames[] = {
    {"sequencer", Role::kSequencer, 1, '0'},
    {"primary", Role::kPrimary, 1, '8'},
    {"secondary", Role::kSecondary, 10, '9'},
    {"client", Role::kClient, 20, '9'},
};

/// The node a peer name stands for; nullopt for an unknown name.
std::optional<Peer> resolve_name(std::string_view name) {
  if (name == "sequencer") {
    return Peer{std::string(name), NodeSpec{}, net::NodeId{1}, {}};
  }
  for (const RoleName& r : kRoleNames) {
    if (name.size() != r.name.size() + 1 || !name.starts_with(r.name)) continue;
    const char digit = name.back();
    if (digit < '1' || digit > r.max_n) return std::nullopt;
    const auto n = static_cast<std::uint32_t>(digit - '0');
    return Peer{std::string(name), NodeSpec{r.role, 0, n - 1},
                net::NodeId{r.id_base + n}, {}};
  }
  return std::nullopt;
}

}  // namespace

std::optional<Role> parse_role(std::string_view name) {
  for (const RoleName& r : kRoleNames) {
    if (r.name == name) return r.role;
  }
  return std::nullopt;
}

std::optional<Address> parse_address(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return std::nullopt;
  const auto port = parse_u64(text.substr(colon + 1));
  if (!port || *port == 0 || *port > 65535) return std::nullopt;
  Address address;
  address.host = std::string(text.substr(0, colon));
  address.port = static_cast<std::uint16_t>(*port);
  in_addr parsed{};
  if (address.host == "localhost") {
    address.ipv4 = INADDR_LOOPBACK;
  } else if (inet_pton(AF_INET, address.host.c_str(), &parsed) == 1) {
    address.ipv4 = ntohl(parsed.s_addr);
  } else {
    return std::nullopt;
  }
  return address;
}

std::string AddressBook::add(std::string_view entry) {
  const std::string quoted = "'" + std::string(entry) + "'";
  const std::size_t eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return "peer " + quoted + " is not NAME=HOST:PORT";
  }
  std::optional<Peer> peer = resolve_name(entry.substr(0, eq));
  if (!peer) return "peer " + quoted + " has an unknown name";
  const auto address = parse_address(entry.substr(eq + 1));
  if (!address) {
    return "peer " + quoted + " needs an IPv4 HOST and a PORT in 1..65535";
  }
  if (const Peer* other = find(*address)) {
    return "peer " + quoted + " reuses the address of " + other->name;
  }
  for (const Peer& other : peers_) {
    if (other.name == peer->name) {
      return "peer " + quoted + " names a node twice";
    }
  }
  peer->address = *address;
  peers_.push_back(std::move(*peer));
  return {};
}

const Peer* AddressBook::find(const Address& address) const {
  for (const Peer& peer : peers_) {
    const Address& at = peer.address;
    if (at.ipv4 == address.ipv4 && at.port == address.port) return &peer;
  }
  return nullptr;
}

std::size_t AddressBook::count(Role role) const {
  std::size_t highest = 0;
  for (const Peer& peer : peers_) {
    if (peer.node.role == role) {
      highest = std::max(highest, peer.node.index + 1);
    }
  }
  return highest;
}

}  // namespace aqueduct::harness
