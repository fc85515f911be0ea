#include "core/protocol.h"

namespace churnstore {

void Protocol::on_attach(Network& net) {
  assert(net_ == nullptr && "protocol attached twice");
  net_ = &net;
  net.add_churn_hook([this](Vertex v, PeerId old_peer, PeerId new_peer) {
    on_churn(v, old_peer, new_peer);
  });
}

void Protocol::step() {
  // The serial hooks build messages too (the committee merge's landmark
  // rebuilds, search fetches); their out-of-line blocks go to the serial
  // lane's arena. The shard tasks bind their own arenas over this.
  const ScopedArenaBind serial(&net().serial_arena());
  on_round_begin();
  net().run_sharded([this](std::uint32_t s) {
    ShardContext ctx(net(), s);
    on_round_begin(s, ctx);
  });
  on_round_merge();
  net().flush_shard_lanes();
}

}  // namespace churnstore
