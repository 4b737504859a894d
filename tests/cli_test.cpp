// Strict numeric flag parsing shared by every CLI (harness/cli.hpp), and
// the multi-process deployment's address book (harness/address_book.hpp).
#include <gtest/gtest.h>

#include <iostream>

#include "harness/address_book.hpp"
#include "harness/cli.hpp"

namespace aqueduct::harness {
namespace {

TEST(CliParse, U64AcceptsOnlyWholeUnsignedNumbers) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(parse_u64("abc"));
  EXPECT_FALSE(parse_u64("12x"));
  EXPECT_FALSE(parse_u64("-1"));  // would wrap to 2^64-1 via std::stoull
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64(" 7"));
  EXPECT_FALSE(parse_u64("+7"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
}

TEST(CliParse, DoubleAcceptsOnlyWholeFiniteNumbers) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("100"), 100.0);
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double("12x"));
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double(" 1"));
  EXPECT_FALSE(parse_double("inf"));
  EXPECT_FALSE(parse_double("nan"));
  EXPECT_FALSE(parse_double("1e999"));  // out of range
}

TEST(CliParseDeathTest, RequireExitsTwoWithUsageOnMalformedValue) {
  const auto usage = [] { std::cerr << "usage: prog\n"; };
  EXPECT_EQ(require_u64("--seeds", "7", usage), 7u);
  EXPECT_EQ(require_double("--epsilon", "0.5", usage), 0.5);
  EXPECT_EXIT(require_u64("--seeds", "-1", usage),
              testing::ExitedWithCode(2),
              "flag --seeds needs a non-negative integer, got '-1'\n"
              "usage: prog");
  EXPECT_EXIT(require_double("--epsilon", "12x", usage),
              testing::ExitedWithCode(2),
              "flag --epsilon needs a finite number");
}

TEST(AddressBook, ParsesIpv4OrLocalhostWithAPort) {
  const auto local = parse_address("localhost:7421");
  ASSERT_TRUE(local);
  EXPECT_EQ(local->host, "localhost");
  EXPECT_EQ(local->port, 7421);
  EXPECT_EQ(local->ipv4, parse_address("127.0.0.1:7421")->ipv4);
  EXPECT_EQ(parse_address("10.1.2.3:1")->ipv4, 0x0a010203u);
  EXPECT_FALSE(parse_address("abc:7421"));  // not IPv4: a usage error
  EXPECT_FALSE(parse_address("::1:7421"));
  EXPECT_FALSE(parse_address("10.0.0.256:7421"));
  EXPECT_FALSE(parse_address("127.0.0.1"));
  EXPECT_FALSE(parse_address(":7421"));
  EXPECT_FALSE(parse_address("127.0.0.1:"));
  EXPECT_FALSE(parse_address("127.0.0.1:0"));
  EXPECT_FALSE(parse_address("127.0.0.1:65536"));
  EXPECT_FALSE(parse_address("127.0.0.1:+80"));
}

TEST(AddressBook, NamesFixRoleLayoutSlotAndNodeId) {
  AddressBook book;
  for (const char* entry :
       {"sequencer=127.0.0.1:7421", "primary1=127.0.0.1:7422",
        "primary3=127.0.0.1:7423", "secondary2=127.0.0.1:7424",
        "client1=127.0.0.1:7425"}) {
    EXPECT_EQ(book.add(entry), "") << entry;
  }
  const auto& peers = book.peers();
  ASSERT_EQ(peers.size(), 5u);
  EXPECT_EQ(peers[0].node.role, Role::kSequencer);
  EXPECT_EQ(peers[0].id, net::NodeId{1});
  EXPECT_EQ(peers[2].node.role, Role::kPrimary);
  EXPECT_EQ(peers[2].node.index, 2u);
  EXPECT_EQ(peers[2].id, net::NodeId{4});
  EXPECT_EQ(peers[3].node.role, Role::kSecondary);
  EXPECT_EQ(peers[3].node.index, 1u);
  EXPECT_EQ(peers[3].id, net::NodeId{12});
  EXPECT_EQ(peers[4].node.role, Role::kClient);
  EXPECT_EQ(peers[4].id, net::NodeId{21});
  EXPECT_EQ(book.count(Role::kPrimary), 3u);
  EXPECT_EQ(book.count(Role::kSecondary), 2u);
  EXPECT_EQ(book.count(Role::kClient), 1u);
  EXPECT_EQ(book.find(*parse_address("localhost:7423")), &peers[2]);
  EXPECT_EQ(book.find(*parse_address("127.0.0.1:7499")), nullptr);
}

TEST(AddressBook, RefusesMalformedUnknownAndDuplicateEntries) {
  AddressBook book;
  ASSERT_EQ(book.add("sequencer=127.0.0.1:7421"), "");
  EXPECT_NE(book.add("primary1"), "");
  EXPECT_NE(book.add("=127.0.0.1:7422"), "");
  EXPECT_NE(book.add("publisher=127.0.0.1:7422"), "");  // no such role
  EXPECT_NE(book.add("primary9=127.0.0.1:7422"), "");
  EXPECT_NE(book.add("primary0=127.0.0.1:7422"), "");
  EXPECT_NE(book.add("client10=127.0.0.1:7422"), "");
  EXPECT_NE(book.add("primary1=abc:7422"), "");
  // The same name or the same address twice: before, the last one won.
  EXPECT_EQ(book.add("sequencer=127.0.0.1:7422"),
            "peer 'sequencer=127.0.0.1:7422' names a node twice");
  EXPECT_EQ(book.add("primary1=localhost:7421"),
            "peer 'primary1=localhost:7421' reuses the address of sequencer");
  EXPECT_EQ(book.peers().size(), 1u);
}

}  // namespace
}  // namespace aqueduct::harness
