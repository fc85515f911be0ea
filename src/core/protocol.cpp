#include "core/protocol.h"

namespace churnstore {

void Protocol::on_attach(Network& net) {
  assert(net_ == nullptr && "protocol attached twice");
  net_ = &net;
  net.events().subscribe<PeerChurned>([this](PeerChurned& ev) {
    on_churn(ev.vertex, ev.old_peer, ev.new_peer);
  });
}

void Protocol::step() {
  on_round_begin();
  net().run_sharded([this](std::uint32_t s) {
    ShardContext ctx(net(), s);
    on_round_begin(s, ctx);
  });
  on_round_merge();
  net().flush_shard_lanes();
}

}  // namespace churnstore
