// Wire-codec round-trip suite: every registered message type must encode
// to a frame that decodes back to an equal message, byte for byte
// (encode(decode(bytes)) == bytes), and every malformed input must throw
// CodecError instead of crashing or silently misparsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gcs/messages.hpp"
#include "gcs/seq_table.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"
#include "replication/messages.hpp"
#include "replication/objects.hpp"
#include "sim/random.hpp"

namespace aqueduct {
namespace {

net::MessagePtr make_kv_put() {
  auto op = std::make_shared<replication::KvPut>();
  op->key = "k3";
  op->value = "v-\x01\x02 with bytes";
  return op;
}

std::shared_ptr<const gcs::DataMsg> make_data_msg() {
  auto data = std::make_shared<gcs::DataMsg>();
  data->group = gcs::GroupId{17};
  data->is_mcast = false;
  data->sender = net::NodeId{3};
  data->dest = net::NodeId{9};
  data->seq = 41;
  data->view_sent = 6;
  data->payload = make_kv_put();
  return data;
}

/// One fully populated exemplar per registered wire type. Coverage is
/// enforced against CodecRegistry::global().ids(): adding a codec-enabled
/// message without extending this list fails the suite.
std::vector<net::MessagePtr> exemplars() {
  std::vector<net::MessagePtr> out;

  // ---- gcs (0x1*) ----
  out.push_back(make_data_msg());
  {
    auto m = std::make_shared<gcs::HeartbeatMsg>();
    m->group = gcs::GroupId{18};
    m->view = 4;
    m->my_mcast_seq = 100;
    m->my_p2p_seq = {{net::NodeId{2}, 7}, {net::NodeId{5}, 0}};
    m->mcast_acks = {{net::NodeId{1}, 99}};
    m->p2p_acks = {{net::NodeId{4}, 3}};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::NackMsg>();
    m->group = gcs::GroupId{18};
    m->is_mcast = false;
    m->from_seq = 10;
    m->to_seq = 15;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::JoinMsg>();
    m->group = gcs::GroupId{19};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::LeaveMsg>();
    m->group = gcs::GroupId{19};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::SuspectMsg>();
    m->group = gcs::GroupId{17};
    m->suspect = net::NodeId{11};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::ProposeMsg>();
    m->group = gcs::GroupId{17};
    m->proposal = 9;
    m->members = {net::NodeId{1}, net::NodeId{2}, net::NodeId{3}};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::FlushMsg>();
    m->group = gcs::GroupId{17};
    m->proposal = 9;
    m->delivered = {{net::NodeId{1}, 12}, {net::NodeId{2}, 0}};
    m->held = {make_data_msg()};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<gcs::InstallMsg>();
    m->group = gcs::GroupId{17};
    m->proposal = 10;
    m->view.group = gcs::GroupId{17};
    m->view.id = 10;
    m->view.members = {net::NodeId{1}, net::NodeId{3}};
    m->deliver_up_to = {{net::NodeId{1}, 12}};
    m->resolution = {make_data_msg()};
    out.push_back(m);
  }

  // ---- replication sequencer protocol (0x2*) ----
  {
    auto m = std::make_shared<replication::UpdateRequest>();
    m->id = {net::NodeId{21}, 5};
    m->op = make_kv_put();
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::ReadRequest>();
    m->id = {net::NodeId{21}, 6};
    auto op = std::make_shared<replication::KvGet>();
    op->key = "k3";
    m->op = op;
    m->staleness_threshold = 4;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::GsnAssign>();
    m->id = {net::NodeId{21}, 5};
    m->gsn = 77;
    m->is_update = true;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::Reply>();
    m->id = {net::NodeId{21}, 6};
    m->is_update = false;
    auto result = std::make_shared<replication::KvResult>();
    result->value = "v";
    result->version = 8;
    m->result = result;
    m->replica = net::NodeId{12};
    m->t1 = std::chrono::milliseconds(25);
    m->ts = std::chrono::milliseconds(20);
    m->tq = std::chrono::milliseconds(5);
    m->tb = sim::Duration::zero();
    m->deferred = true;
    m->staleness = 2;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::LazyUpdate>();
    m->csn = 8;
    auto snap = std::make_shared<replication::KvSnapshot>();
    snap->entries = {{"a", "1"}, {"b", "2"}};
    snap->version = 8;
    m->snapshot = snap;
    m->lazy_seq = 3;
    out.push_back(m);
  }
  out.push_back(std::make_shared<replication::StateRequest>());
  {
    auto m = std::make_shared<replication::StateSnapshot>();
    m->csn = 8;
    m->gsn = 9;
    auto snap = std::make_shared<replication::KvSnapshot>();
    snap->version = 8;
    m->snapshot = snap;
    m->committed = {{net::NodeId{21}, 5}, {net::NodeId{22}, 1}};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::PerfPublication>();
    m->replica = net::NodeId{12};
    m->has_sample = true;
    m->ts = std::chrono::milliseconds(20);
    m->tq = std::chrono::milliseconds(5);
    m->tb = std::chrono::milliseconds(1);
    m->deferred = true;
    m->lazy = replication::LazyInfo{3, std::chrono::milliseconds(500), 2,
                                    std::chrono::milliseconds(900),
                                    std::chrono::milliseconds(500)};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::GroupInfo>();
    m->epoch = 4;
    m->sequencer = net::NodeId{1};
    m->primaries = {net::NodeId{2}, net::NodeId{3}};
    m->secondaries = {net::NodeId{11}, net::NodeId{12}};
    m->lazy_publisher = net::NodeId{3};
    out.push_back(m);
  }

  // ---- example replicated objects (0x4*) ----
  out.push_back(make_kv_put());
  {
    auto m = std::make_shared<replication::KvGet>();
    m->key = "k3";
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::KvResult>();
    m->value = std::nullopt;  // absent-optional branch
    m->version = 9;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::KvSnapshot>();
    m->entries = {{"x", ""}, {"", "y"}};  // empty strings survive framing
    m->version = 2;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::DocAppend>();
    m->line = "line one";
    out.push_back(m);
  }
  out.push_back(std::make_shared<replication::DocRead>());
  {
    auto m = std::make_shared<replication::DocContents>();
    m->lines = {"a", "b", "c"};
    m->version = 3;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::TickerSet>();
    m->symbol = "ACME";
    m->price = 101.25;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::TickerGet>();
    m->symbol = "ACME";
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::TickerQuote>();
    m->symbol = "ACME";
    m->price = 101.25;
    m->version = 1;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::TickerSnapshot>();
    m->prices = {{"ACME", 101.25}, {"ZZZ", 0.5}};
    m->version = 2;
    out.push_back(m);
  }
  out.push_back(std::make_shared<replication::RegisterBump>());
  out.push_back(std::make_shared<replication::RegisterRead>());
  {
    auto m = std::make_shared<replication::RegisterValue>();
    m->value = 5;
    out.push_back(m);
  }

  return out;
}

class CodecTest : public ::testing::Test {
 protected:
  void SetUp() override { replication::register_wire_codecs(); }
};

TEST_F(CodecTest, ExemplarsCoverEveryRegisteredType) {
  std::set<net::WireTypeId> covered;
  for (const auto& m : exemplars()) {
    EXPECT_NE(m->wire_type(), 0u) << m->type_name();
    EXPECT_TRUE(covered.insert(m->wire_type()).second)
        << "duplicate exemplar for id " << m->wire_type();
  }
  const auto ids = net::CodecRegistry::global().ids();
  const std::set<net::WireTypeId> registered(ids.begin(), ids.end());
  EXPECT_EQ(covered, registered)
      << "every registered type needs an exemplar here, and every exemplar "
         "must be registered";
}

TEST_F(CodecTest, RegistrationIsIdempotent) {
  const std::size_t before = net::CodecRegistry::global().size();
  replication::register_wire_codecs();
  gcs::register_wire_codecs();
  EXPECT_EQ(net::CodecRegistry::global().size(), before);
}

TEST_F(CodecTest, EncodeDecodeEncodeIsByteIdentical) {
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    const std::vector<std::uint8_t> bytes = net::encode_frame(*m);
    ASSERT_GE(bytes.size(), net::kFrameHeaderSize);

    net::Reader r(bytes);
    net::MessagePtr decoded;
    ASSERT_NO_THROW(decoded = net::decode_frame(r));
    ASSERT_TRUE(decoded);
    EXPECT_TRUE(r.done()) << "decoder left trailing bytes";
    EXPECT_EQ(decoded->wire_type(), m->wire_type());
    EXPECT_EQ(decoded->type_name(), m->type_name());

    // Field fidelity without per-type comparators: the decoded message
    // must re-encode to exactly the original bytes.
    EXPECT_EQ(net::encode_frame(*decoded), bytes);
  }
}

TEST_F(CodecTest, WireSizeIsTheEncodedFrameSize) {
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    EXPECT_EQ(m->wire_size(), net::encode_frame(*m).size());
  }
}

TEST_F(CodecTest, EveryTruncationThrows) {
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    const std::vector<std::uint8_t> bytes = net::encode_frame(*m);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      net::Reader r(bytes.data(), len);
      EXPECT_THROW(net::decode_frame(r), net::CodecError)
          << "prefix of " << len << "/" << bytes.size()
          << " bytes decoded without error";
    }
  }
}

TEST_F(CodecTest, BadMagicThrows) {
  auto bytes = net::encode_frame(*make_kv_put());
  bytes[0] ^= 0xff;
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, UnknownVersionThrows) {
  auto bytes = net::encode_frame(*make_kv_put());
  bytes[4] = net::kWireVersion + 1;
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, UnknownTypeIdThrows) {
  auto bytes = net::encode_frame(*make_kv_put());
  // Type id is bytes 5..8 (little-endian); 0xffffffff is never registered.
  bytes[5] = bytes[6] = bytes[7] = bytes[8] = 0xff;
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, TrailingPayloadBytesThrow) {
  // Grow the declared payload length by one and append a stray byte: the
  // decoder no longer consumes exactly the payload, which must be an error
  // (anything else would let frames smuggle undetected junk).
  auto bytes = net::encode_frame(*make_kv_put());
  const std::uint32_t len = static_cast<std::uint32_t>(bytes[9]) |
                            (static_cast<std::uint32_t>(bytes[10]) << 8) |
                            (static_cast<std::uint32_t>(bytes[11]) << 16) |
                            (static_cast<std::uint32_t>(bytes[12]) << 24);
  const std::uint32_t grown = len + 1;
  bytes[9] = static_cast<std::uint8_t>(grown);
  bytes[10] = static_cast<std::uint8_t>(grown >> 8);
  bytes[11] = static_cast<std::uint8_t>(grown >> 16);
  bytes[12] = static_cast<std::uint8_t>(grown >> 24);
  bytes.push_back(0);
  net::Reader r(bytes);
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, RetiredFifoIdsStayUnregistered) {
  // 0x31-0x35 belonged to the former stand-alone FIFO stack. They are
  // retired, never reused: no decoder, and a frame naming one is rejected.
  for (net::WireTypeId id = 0x31; id <= 0x35; ++id) {
    SCOPED_TRACE(id);
    EXPECT_FALSE(net::CodecRegistry::global().contains(id));
    EXPECT_EQ(net::CodecRegistry::global().find(id), nullptr);
    auto bytes = net::encode_frame(*make_kv_put());
    for (int i = 0; i < 4; ++i) {
      bytes[5 + i] = static_cast<std::uint8_t>(id >> (8 * i));
    }
    net::Reader r(bytes);
    try {
      (void)net::decode_frame(r);
      ADD_FAILURE() << "retired id decoded";
    } catch (const net::CodecError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown wire type id"),
                std::string::npos)
          << e.what();
    }
  }
}

/// FIFO-policy state on the shared replication types: one message per
/// type with its trailing extension set.
std::vector<net::MessagePtr> fifo_exemplars() {
  std::vector<net::MessagePtr> out;
  {
    auto m = std::make_shared<replication::UpdateRequest>();
    m->id = {net::NodeId{23}, 4};
    m->op = make_kv_put();
    m->after = 2;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::ReadRequest>();
    m->id = {net::NodeId{23}, 5};
    auto op = std::make_shared<replication::KvGet>();
    op->key = "k0";
    m->op = op;
    m->staleness_threshold = 0;
    m->after = 4;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::LazyUpdate>();
    m->csn = 2;
    auto snap = std::make_shared<replication::KvSnapshot>();
    snap->version = 2;
    m->snapshot = snap;
    m->lazy_seq = 1;
    m->horizons = {{net::NodeId{23}, 4}, {net::NodeId{24}, 1}};
    out.push_back(m);
  }
  {
    auto m = std::make_shared<replication::StateSnapshot>();
    m->csn = 2;
    auto snap = std::make_shared<replication::KvSnapshot>();
    snap->version = 2;
    m->snapshot = snap;
    m->committed = {{net::NodeId{23}, 4}};
    m->horizons = {{net::NodeId{23}, 4}};
    out.push_back(m);
  }
  return out;
}

TEST_F(CodecTest, FifoFieldsRoundTripOnSharedTypes) {
  for (const auto& m : fifo_exemplars()) {
    SCOPED_TRACE(m->type_name());
    const std::vector<std::uint8_t> bytes = net::encode_frame(*m);
    net::Reader r(bytes);
    net::MessagePtr decoded;
    ASSERT_NO_THROW(decoded = net::decode_frame(r));
    EXPECT_TRUE(r.done());
    EXPECT_EQ(net::encode_frame(*decoded), bytes);
    EXPECT_EQ(m->wire_size(), bytes.size());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      net::Reader prefix(bytes.data(), len);
      EXPECT_THROW(net::decode_frame(prefix), net::CodecError) << len;
    }
  }
}

TEST_F(CodecTest, SequentialFramesCarryNoFifoBytes) {
  // The FIFO extension is written only when set: a sequential-policy
  // frame is exactly the pre-extension layout.
  replication::ReadRequest read;
  read.id = {net::NodeId{7}, 9};
  read.op = make_kv_put();
  read.staleness_threshold = 3;
  net::Writer legacy;
  legacy.node(read.id.client);
  legacy.u64(read.id.seq);
  net::encode_nested(legacy, read.op);
  legacy.u64(read.staleness_threshold);
  net::Writer w;
  read.encode(w);
  EXPECT_EQ(w.bytes(), legacy.bytes());

  replication::LazyUpdate lazy;
  lazy.csn = 4;
  lazy.lazy_seq = 2;
  net::Writer lazy_legacy;
  lazy_legacy.u64(lazy.csn);
  net::encode_nested(lazy_legacy, nullptr);
  lazy_legacy.u64(lazy.lazy_seq);
  net::Writer lw;
  lazy.encode(lw);
  EXPECT_EQ(lw.bytes(), lazy_legacy.bytes());

  // Setting the extension adds exactly its own bytes.
  replication::ReadRequest with_after = read;
  with_after.after = 5;
  EXPECT_EQ(with_after.wire_size(), read.wire_size() + 8);
}

TEST_F(CodecTest, DefaultValuedFifoExtensionIsRejected) {
  // An explicitly encoded zero `after` (or empty horizons) would decode to
  // the same message as no extension: non-canonical, so it must throw.
  replication::UpdateRequest update;
  update.id = {net::NodeId{7}, 9};
  update.op = make_kv_put();
  net::Writer payload;
  update.encode(payload);
  payload.u64(0);
  net::Writer frame;
  frame.u32(net::kWireMagic);
  frame.u8(net::kWireVersion);
  frame.u32(replication::kWireUpdate);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.raw(payload.bytes().data(), payload.size());
  net::Reader r(frame.bytes());
  EXPECT_THROW(net::decode_frame(r), net::CodecError);

  replication::LazyUpdate lazy;
  net::Writer lazy_payload;
  lazy.encode(lazy_payload);
  lazy_payload.u32(0);  // empty horizons map
  net::Writer lazy_frame;
  lazy_frame.u32(net::kWireMagic);
  lazy_frame.u8(net::kWireVersion);
  lazy_frame.u32(replication::kWireLazyUpdate);
  lazy_frame.u32(static_cast<std::uint32_t>(lazy_payload.size()));
  lazy_frame.raw(lazy_payload.bytes().data(), lazy_payload.size());
  net::Reader lr(lazy_frame.bytes());
  EXPECT_THROW(net::decode_frame(lr), net::CodecError);
}

TEST_F(CodecTest, MessageWithoutCodecSupportIsRejected) {
  struct PlainMsg final : net::Message {
    std::string type_name() const override { return "test.plain"; }
  };
  const PlainMsg plain;
  EXPECT_EQ(plain.wire_type(), 0u);
  EXPECT_THROW(net::encode_frame(plain), net::CodecError);
  // wire_size() falls back to the pre-codec simulator estimate.
  EXPECT_EQ(plain.wire_size(), 64u);
}

TEST_F(CodecTest, NestedPayloadAbsentRoundTrips) {
  net::Writer w;
  net::encode_nested(w, nullptr);
  net::Reader r(w.bytes());
  EXPECT_EQ(net::decode_nested(r), nullptr);
  EXPECT_TRUE(r.done());
}

TEST_F(CodecTest, FlushHeldEntryMustBeDataMsg) {
  // Hand-craft a gcs.flush whose held list contains a kv.put frame: the
  // decoder must reject it (held/resolution carry gcs.data only).
  net::Writer payload;
  payload.u32(17);                    // group
  payload.u64(9);                     // proposal
  payload.u32(0);                     // delivered: empty
  payload.u32(1);                     // held: one entry
  net::encode_frame(*make_kv_put(), payload);

  net::Writer frame;
  frame.u32(net::kWireMagic);
  frame.u8(net::kWireVersion);
  frame.u32(gcs::kWireFlush);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.raw(payload.bytes().data(), payload.size());

  net::Reader r(frame.bytes());
  EXPECT_THROW(net::decode_frame(r), net::CodecError);
}

TEST_F(CodecTest, RandomBytesNeverCrashTheDecoder) {
  // Property check: arbitrary input either decodes or throws CodecError —
  // no other exception, no hang, no crash. Seeded, so deterministic.
  sim::Rng rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(128));
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    net::Reader r(bytes);
    try {
      (void)net::decode_frame(r);
    } catch (const net::CodecError&) {
      // expected for almost every trial
    }
  }
}

TEST_F(CodecTest, SingleByteCorruptionNeverCrashesTheDecoder) {
  // Flip each byte of each valid frame in turn: the decoder must either
  // throw CodecError or produce some message — never crash or misbehave.
  for (const auto& m : exemplars()) {
    SCOPED_TRACE(m->type_name());
    const std::vector<std::uint8_t> original = net::encode_frame(*m);
    for (std::size_t i = 0; i < original.size(); ++i) {
      std::vector<std::uint8_t> bytes = original;
      bytes[i] ^= 0x2a;
      net::Reader r(bytes);
      try {
        const net::MessagePtr decoded = net::decode_frame(r);
        ASSERT_TRUE(decoded);
      } catch (const net::CodecError&) {
        // fine: corruption detected
      }
    }
  }
}

// ---- size-only pass, the wire-size memo, and the flat heartbeat tables ----

TEST_F(CodecTest, SizeOnlyWriterCountsExactlyTheEncodedBytes) {
  std::vector<net::MessagePtr> all = exemplars();
  for (const auto& m : fifo_exemplars()) all.push_back(m);
  for (const auto& m : all) {
    SCOPED_TRACE(m->type_name());
    const std::vector<std::uint8_t> bytes = net::encode_frame(*m);
    net::Writer counter = net::Writer::size_only();
    net::encode_frame(*m, counter);
    EXPECT_EQ(counter.size(), bytes.size());
    EXPECT_TRUE(counter.bytes().empty());
    // A freshly decoded message has no memo: its size is counted anew.
    net::Reader r(bytes);
    EXPECT_EQ(net::decode_frame(r)->wire_size(), bytes.size());
  }
}

TEST_F(CodecTest, WireSizeMemoIsNotInheritedByACopy) {
  replication::ReadRequest read;
  read.id = {net::NodeId{7}, 9};
  read.op = make_kv_put();
  read.staleness_threshold = 3;
  const std::size_t size = read.wire_size();  // memoized from here on
  EXPECT_EQ(size, net::encode_frame(read).size());

  replication::ReadRequest copy = read;
  copy.after = 5;  // the FIFO extension: 8 more bytes
  EXPECT_EQ(copy.wire_size(), size + 8);
  EXPECT_EQ(copy.wire_size(), net::encode_frame(copy).size());
  EXPECT_EQ(read.wire_size(), size);

  // Assignment replaces the target's contents, so it drops its memo too.
  replication::ReadRequest target;
  const std::size_t empty_size = target.wire_size();
  target = copy;
  EXPECT_EQ(target.wire_size(), size + 8);
  EXPECT_NE(empty_size, target.wire_size());

  gcs::HeartbeatMsg hb;
  hb.group = gcs::GroupId{3};
  hb.mcast_acks = {{net::NodeId{1}, 4}};
  const std::size_t hb_size = hb.wire_size();
  gcs::HeartbeatMsg bigger = hb;
  bigger.mcast_acks[net::NodeId{2}] = 5;  // one more (u32, u64) entry
  EXPECT_EQ(bigger.wire_size(), hb_size + 12);
}

TEST_F(CodecTest, EnvelopeAroundPlainPayloadKeepsNominalSize) {
  struct PlainMsg final : net::Message {
    std::string type_name() const override { return "test.plain"; }
  };
  auto data = std::make_shared<gcs::DataMsg>();
  data->group = gcs::GroupId{1};
  data->payload = std::make_shared<PlainMsg>();
  EXPECT_EQ(data->wire_size(), 64u);
  EXPECT_EQ(data->wire_size(), 64u);  // memoized fallback, same answer
}

/// A heartbeat frame whose three tables carry `entries` in the given order
/// (duplicates included) — what a peer could put on the wire.
std::vector<std::uint8_t> heartbeat_frame(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& entries) {
  net::Writer body;
  body.u32(18);  // group
  body.u64(4);   // view
  body.u64(100);  // my_mcast_seq
  for (int table = 0; table < 3; ++table) {
    body.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [node, seq] : entries) {
      body.u32(node);
      body.u64(seq + static_cast<std::uint64_t>(table));
    }
  }
  net::Writer frame;
  frame.u32(net::kWireMagic);
  frame.u8(net::kWireVersion);
  frame.u32(gcs::kWireHeartbeat);
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.raw(body.bytes().data(), body.size());
  return frame.bytes();
}

void expect_decodes_like_std_map(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& entries) {
  const std::vector<std::uint8_t> bytes = heartbeat_frame(entries);
  net::Reader r(bytes);
  const auto hb = net::message_cast<gcs::HeartbeatMsg>(net::decode_frame(r));
  ASSERT_TRUE(hb);
  const gcs::SeqTable* tables[] = {&hb->my_p2p_seq, &hb->mcast_acks,
                                   &hb->p2p_acks};
  for (int table = 0; table < 3; ++table) {
    // The decoder this table replaced: m[node] = seq, in wire order.
    std::map<net::NodeId, std::uint64_t> expected;
    for (const auto& [node, seq] : entries) {
      expected[net::NodeId{node}] = seq + static_cast<std::uint64_t>(table);
    }
    const gcs::SeqTable& got = *tables[table];
    ASSERT_EQ(got.size(), expected.size());
    auto it = got.begin();
    for (const auto& [node, seq] : expected) {
      EXPECT_EQ(it->first, node);
      EXPECT_EQ(it->second, seq);
      ++it;
    }
    // Re-encoding writes the canonical (sorted, deduplicated) map bytes.
    net::Writer from_table;
    net::encode_node_u64_map(from_table, got);
    net::Writer from_map;
    net::encode_node_u64_map(from_map, expected);
    EXPECT_EQ(from_table.bytes(), from_map.bytes());
  }
}

TEST_F(CodecTest, FlatAckTableDecodesUnsortedAndDuplicateEntriesLikeStdMap) {
  expect_decodes_like_std_map({});
  expect_decodes_like_std_map({{1, 5}, {2, 6}, {9, 7}});
  expect_decodes_like_std_map({{9, 1}, {2, 2}, {5, 3}});
  expect_decodes_like_std_map({{4, 1}, {4, 2}, {4, 3}});
  expect_decodes_like_std_map({{7, 1}, {3, 2}, {7, 3}, {3, 4}, {1, 5}, {7, 6}});
  sim::Rng rng(23);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
    const std::uint64_t n = rng.uniform_int(12);
    for (std::uint64_t i = 0; i < n; ++i) {
      entries.emplace_back(static_cast<std::uint32_t>(rng.uniform_int(6)),
                           rng.uniform_int(1000));
    }
    expect_decodes_like_std_map(entries);
  }
}

TEST_F(CodecTest, FlatAckTableKeepsStdMapSurface) {
  // Brace initialisation keeps the first of duplicate keys, like std::map.
  const gcs::SeqTable table = {{net::NodeId{5}, 1}, {net::NodeId{2}, 2},
                               {net::NodeId{5}, 3}};
  const std::map<net::NodeId, std::uint64_t> map = {
      {net::NodeId{5}, 1}, {net::NodeId{2}, 2}, {net::NodeId{5}, 3}};
  ASSERT_EQ(table.size(), map.size());
  EXPECT_TRUE(std::equal(table.begin(), table.end(), map.begin(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  EXPECT_EQ(table.find(net::NodeId{3}), table.end());
  ASSERT_NE(table.find(net::NodeId{5}), table.end());
  EXPECT_EQ(table.find(net::NodeId{5})->second, 1u);

  gcs::SeqTable built;
  built[net::NodeId{5}] = 1;  // operator[] inserts in key order
  built[net::NodeId{2}] = 2;
  EXPECT_EQ(built, table);
  built[net::NodeId{2}] += 1;
  EXPECT_NE(built, table);
}

}  // namespace
}  // namespace aqueduct
