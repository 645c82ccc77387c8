#include "core/tracing_phy.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <variant>

#include "adversary/jammer.hpp"
#include "core/abstract_phy.hpp"
#include "core/dndp.hpp"
#include "obs/sinks.hpp"
#include "sim/topology.hpp"

namespace jrsnd::core {
namespace {

struct TraceWorld {
  Params params;
  predist::CodePoolAuthority authority;
  crypto::IbcAuthority ibc;
  sim::Field field{100.0, 100.0};
  sim::Topology topology;
  adversary::NullJammer jammer;
  Rng phy_rng{3};
  AbstractPhy inner;
  TracingPhy phy;
  std::vector<NodeState> nodes;

  TraceWorld()
      : params(make_params()),
        authority(params.predist(), Rng(1)),
        ibc(2),
        topology(field, {{10, 10}, {20, 10}}, 50.0),
        inner(topology, jammer, phy_rng),
        phy(inner) {
    Rng node_rng(4);
    nodes = issue_nodes(authority, ibc, params.n, params.gamma, node_rng);
  }

  static Params make_params() {
    Params p = Params::defaults();
    p.n = 2;
    p.m = 3;
    p.l = 2;  // both nodes share all pool codes
    p.N = 64;
    return p;
  }
};

TEST(TracingPhy, RecordsTheFullDndpMessageSequence) {
  TraceWorld w;
  DndpEngine engine(w.params, w.phy);
  const DndpResult result = engine.run(w.nodes[0], w.nodes[1]);
  ASSERT_TRUE(result.discovered);

  // x shared codes -> x sub-sessions, each HELLO + CONFIRM + 2 AUTH.
  const auto hellos = w.phy.by_class(TxClass::Hello);
  const auto confirms = w.phy.by_class(TxClass::Confirm);
  const auto auths = w.phy.by_class(TxClass::Auth);
  EXPECT_EQ(hellos.size(), result.shared_codes);
  EXPECT_EQ(confirms.size(), result.shared_codes);
  EXPECT_EQ(auths.size(), 2u * result.shared_codes);
  EXPECT_EQ(w.phy.records().size(), 4u * result.shared_codes);
  EXPECT_EQ(w.phy.delivered_count(), w.phy.records().size());  // clean channel

  // Directions: HELLO and the first AUTH go initiator -> responder.
  for (const auto& r : hellos) {
    EXPECT_EQ(r.from, node_id(0));
    EXPECT_EQ(r.to, node_id(1));
  }
  for (const auto& r : confirms) {
    EXPECT_EQ(r.from, node_id(1));
    EXPECT_EQ(r.to, node_id(0));
  }

  // Payload sizes match the wire formats (l_t + l_id = 21 for HELLO).
  EXPECT_EQ(hellos[0].payload_bits, 21u);
  EXPECT_EQ(auths[0].payload_bits, 5u + 16u + 20u + 160u);
}

TEST(TracingPhy, ClearResetsAndPrintRenders) {
  TraceWorld w;
  DndpEngine engine(w.params, w.phy);
  ASSERT_TRUE(engine.run(w.nodes[0], w.nodes[1]).discovered);
  std::ostringstream os;
  w.phy.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("HELLO"), std::string::npos);
  EXPECT_NE(text.find("AUTH"), std::string::npos);
  EXPECT_NE(text.find("delivered"), std::string::npos);
  w.phy.clear();
  EXPECT_TRUE(w.phy.records().empty());
}

TEST(TracingPhy, MarksJammedTransmissionsAsLost) {
  TraceWorld w;
  // Jam everything: compromise both nodes, reactive jammer.
  Rng comp_rng(9);
  adversary::CompromiseModel compromise(w.authority.assignment(), 2, comp_rng);
  adversary::ReactiveJammer jammer(compromise, {8, 1.0});
  AbstractPhy inner(w.topology, jammer, w.phy_rng);
  TracingPhy phy(inner);
  DndpEngine engine(w.params, phy);
  EXPECT_FALSE(engine.run(w.nodes[0], w.nodes[1]).discovered);
  EXPECT_EQ(phy.delivered_count(), 0u);
  EXPECT_FALSE(phy.records().empty());
  for (const auto& r : phy.records()) EXPECT_FALSE(r.delivered);
}

TEST(TracingPhy, ClassNamesAreStable) {
  EXPECT_STREQ(tx_class_name(TxClass::Hello), "HELLO");
  EXPECT_STREQ(tx_class_name(TxClass::SessionUnicast), "MNDP-UNICAST");
}

TEST(TracingPhy, StampsMonotonicSequenceAndSimTime) {
  TraceWorld w;
  w.phy.set_time(TimePoint{1.5});
  DndpEngine engine(w.params, w.phy);
  ASSERT_TRUE(engine.run(w.nodes[0], w.nodes[1]).discovered);
  ASSERT_FALSE(w.phy.records().empty());
  std::uint64_t expected_seq = 1;
  for (const auto& r : w.phy.records()) {
    EXPECT_EQ(r.seq, expected_seq++);
    EXPECT_DOUBLE_EQ(r.t, 1.5);
  }
  // clear() drops records but capture order keeps counting.
  w.phy.clear();
  w.phy.set_time(TimePoint{2.0});
  (void)engine.run(w.nodes[0], w.nodes[1]);
  ASSERT_FALSE(w.phy.records().empty());
  EXPECT_EQ(w.phy.records().front().seq, expected_seq);
  EXPECT_DOUBLE_EQ(w.phy.records().front().t, 2.0);
}

TEST(TracingPhy, PrintJsonlEmitsParseableObsEvents) {
  TraceWorld w;
  DndpEngine engine(w.params, w.phy);
  ASSERT_TRUE(engine.run(w.nodes[0], w.nodes[1]).discovered);
  std::ostringstream os;
  w.phy.print_jsonl(os);

  std::istringstream in(os.str());
  std::string line;
  std::size_t parsed_count = 0;
  while (std::getline(in, line)) {
    const auto ev = obs::parse_jsonl_line(line);
    ASSERT_TRUE(ev.has_value()) << line;
    EXPECT_EQ(ev->name, "phy.tx");
    EXPECT_NE(ev->field("from"), nullptr);
    EXPECT_NE(ev->field("class"), nullptr);
    ASSERT_NE(ev->field("delivered"), nullptr);
    EXPECT_TRUE(std::get<bool>(*ev->field("delivered")));
    ++parsed_count;
  }
  EXPECT_EQ(parsed_count, w.phy.records().size());
}

}  // namespace
}  // namespace jrsnd::core
