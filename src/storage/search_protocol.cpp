#include "storage/search_protocol.h"

#include <algorithm>
#include <span>

namespace churnstore {

namespace {
// kInquiry:       [0] item [1] sid
// kInquiryHit /
// kReport:        [0] item [1] sid [2] holder count m [3 .. 3+m) holder ids
// kFetchRequest:  [0] item [1] sid
// kFetchReply:    [0] item [1] sid [2] piece_index [3] ida_k
//                 [4] original_size [5] member count m [6 .. 6+m) member ids
//                 blob: replica or IDA piece
constexpr std::size_t kHoldersAt = 3;
constexpr std::size_t kReplyMembersAt = 6;
constexpr std::size_t kFetchParallelism = 2;
/// Search deadline, in units of tau.
constexpr double kSearchTimeoutTaus = 4.0;
}  // namespace

SearchManager::SearchManager(TokenSoup& soup, CommitteeManager& committees,
                             LandmarkManager& landmarks, StoreManager& store,
                             const ProtocolConfig& config)
    : soup_(soup),
      committees_(committees),
      landmarks_(landmarks),
      store_(store),
      config_(config) {}

void SearchManager::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  timeout_ = std::max<std::uint32_t>(
      8, static_cast<std::uint32_t>(kSearchTimeoutTaus * committees_.tau()));
}

const SearchStatus* SearchManager::status(std::uint64_t sid) const {
  const auto it = searches_.find(sid);
  return it == searches_.end() ? nullptr : &it->second.status;
}

std::uint64_t SearchManager::start_search(Vertex initiator, ItemId item) {
  const std::uint64_t sid = mix64(next_sid_++ ^ 0x73696400ULL) | 1;
  SearchStatus& st = searches_[sid].status;
  st.sid = sid;
  st.item = item;
  st.initiator = net().peer_at(initiator);
  st.start = net().round();
  st.deadline = st.start + timeout_;
  if (TraceCollector* tc = net().trace_collector();
      tc != nullptr && tc->sampled(sid)) {
    st.trace = sid;
    tc->record(make_trace_event(sid, st.start, initiator, 0, 0,
                                RequestClass::kSearch, TraceEv::kBegin));
  }
  active_.push_back(sid);
  return sid;
}

void SearchManager::finish(Search& s) {
  SearchStatus& st = s.status;
  st.finished = true;
  s.release();
  const auto v = net().find_vertex(st.initiator);
  if (st.trace != 0) {
    // Span payload: detail = end-to-end latency in rounds; hop = rounds to
    // locate a holder (the locate/fetch phase breakdown of the span).
    const Round now = net().round();
    const Round locate = st.located >= 0 ? st.located - st.start : 0;
    net().trace_serial(make_trace_event(
        st.trace, now, v ? *v : 0, now - st.start, locate,
        RequestClass::kSearch,
        st.fetch_ok ? TraceEv::kEndOk : TraceEv::kEndFail));
  }
}

void SearchManager::reply_if_holder(Vertex v, ItemId item, std::uint64_t sid,
                                    PeerId to, ShardContext& ctx) {
  std::span<const PeerId> holders;
  if (const Membership* mem = committees_.membership_at(v, item);
      mem && mem->purpose == Purpose::kStorage) {
    holders = mem->members;
  } else if (const LandmarkState* lm = landmarks_.state_at(v, item);
             lm && lm->purpose == Purpose::kStorage) {
    holders = lm->committee;
  }
  if (holders.empty()) return;
  Message msg;
  msg.src = net().peer_at(v);
  msg.dst = to;
  msg.type = MsgType::kInquiryHit;
  msg.words.reserve(3 + holders.size());
  msg.words = {item, sid, holders.size()};
  msg.words.insert(msg.words.end(), holders.begin(), holders.end());
  ctx.send(v, std::move(msg));
}

// shardcheck:sharded-hook(called from the kReport and kFetchReply handlers)
void SearchManager::add_holders(Search& s, std::span<const PeerId> ids) {
  for (const PeerId h : ids) {
    if (h != kNoPeer && std::find(s.holders.begin(), s.holders.end(), h) ==
                            s.holders.end()) {
      // shardcheck:ok(R6: holder list of an active search: O(distinct holders reported), tens of ids)
      s.holders.push_back(h);
    }
  }
}

void SearchManager::issue_fetches(Vertex v, Search& s) {
  if (s.holders.empty()) return;
  const PeerId self = net().peer_at(v);
  for (std::size_t i = 0; i < kFetchParallelism; ++i) {
    const PeerId holder = s.holders[s.next_fetch % s.holders.size()];
    ++s.next_fetch;
    Message msg;
    msg.src = self;
    msg.dst = holder;
    msg.type = MsgType::kFetchRequest;
    msg.words = {s.status.item, s.status.sid};
    net().send(v, std::move(msg));
  }
}

void SearchManager::on_round_begin() {
  const Round now = net().round();
  inquiry_jobs_.clear();
  std::size_t write = 0;
  for (std::size_t read = 0; read < active_.size(); ++read) {
    const std::uint64_t sid = active_[read];
    Search& s = searches_.find(sid)->second;
    SearchStatus& st = s.status;
    if (st.finished) continue;

    const std::optional<Vertex> iv_slot = net().find_vertex(st.initiator);
    if (!iv_slot) {
      // The searcher itself was churned out; the paper's guarantee is for
      // nodes that stay long enough, so this is a censored trial.
      st.initiator_churned = true;
      st.finished = true;
      s.release();
      if (st.trace != 0) {
        net().trace_serial(make_trace_event(st.trace, now, 0, now - st.start,
                                            0, RequestClass::kSearch,
                                            TraceEv::kEndCensored));
      }
      continue;
    }
    const Vertex iv = *iv_slot;
    if (now > st.deadline || st.fetch_ok) {
      finish(s);
      continue;
    }

    // Create the search committee (retrying until the initiator's sample
    // buffer is warm enough).
    if (st.committee_created < 0) {
      if (committees_.create(iv, sid, Purpose::kSearch, st.item, st.initiator,
                             {}, st.deadline + 2)) {
        st.committee_created = now;
      }
    }

    // The landmark-driven inquiry fan-out happens in the sharded phase;
    // collect this search's live landmarks here (for_each_landmark also
    // lazily compacts the index).
    landmarks_.for_each_landmark(sid, [this, sid](Vertex w, LandmarkState& lm) {
      if (lm.purpose == Purpose::kSearch) inquiry_jobs_.emplace_back(w, sid);
    });

    // Fetch from reported holders once located.
    if (st.located >= 0 && st.fetched < 0) issue_fetches(iv, s);

    active_[write++] = sid;
  }
  active_.resize(write);
  // Canonical job order: ascending landmark vertex, stable for multiple
  // searches at one vertex.
  std::stable_sort(inquiry_jobs_.begin(), inquiry_jobs_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
}

void SearchManager::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  // Drive search landmarks: each contacts the sources of the walks it
  // received last round and inquires about the item (Algorithm 4 step 2).
  // Fanned out over the landmark vertices' own shards (each shard owns a
  // contiguous run of the sorted job list); everything read here
  // (landmark/committee state, samples) is stable during the phase, and
  // all sends stage through ctx.
  (void)shard;
  if (inquiry_jobs_.empty()) return;
  const Round now = net().round();
  const auto lo = std::lower_bound(
      inquiry_jobs_.begin(), inquiry_jobs_.end(), ctx.begin(),
      [](const auto& job, Vertex v) { return job.first < v; });
  for (auto it = lo; it != inquiry_jobs_.end() && it->first < ctx.end();
       ++it) {
    const auto [w, sid] = *it;
    const LandmarkState* lm = landmarks_.state_at(w, sid);
    if (lm == nullptr) continue;
    // A search landmark that itself knows the item reports immediately.
    reply_if_holder(w, lm->item, sid, lm->search_root, ctx);
    const PeerId self = net().peer_at(w);
    for (const PeerId source : soup_.samples(w).at(now - 1)) {
      Message msg;
      msg.src = self;
      msg.dst = source;
      msg.type = MsgType::kInquiry;
      msg.words = {lm->item, sid};
      ctx.send(w, std::move(msg));
    }
  }
}

bool SearchManager::on_message(Vertex v, const Message& m,
                               ShardContext& ctx) {
  switch (m.type) {
    case MsgType::kInquiry: {
      reply_if_holder(v, m.words[0], m.words[1], m.src, ctx);
      return true;
    }
    case MsgType::kInquiryHit: {
      // Forward to the search initiator recorded in our landmark state.
      const std::uint64_t sid = m.words[1];
      const LandmarkState* lm = landmarks_.state_at(v, sid);
      if (!lm || lm->search_root == kNoPeer) return true;
      Message fwd;
      fwd.src = net().peer_at(v);
      fwd.dst = lm->search_root;
      fwd.type = MsgType::kReport;
      fwd.words = m.words;
      ctx.send(v, std::move(fwd));
      return true;
    }
    case MsgType::kReport: {
      const auto it = searches_.find(m.words[1]);
      if (it == searches_.end() || it->second.status.finished) return true;
      Search& s = it->second;
      add_holders(s, {m.words.data() + kHoldersAt, m.words[2]});
      if (s.status.located < 0 && !s.holders.empty()) {
        s.status.located = net().round();
      }
      return true;
    }
    case MsgType::kFetchRequest: {
      const ItemId item = m.words[0];
      const Membership* mem = committees_.membership_at(v, item);
      if (!mem || mem->purpose != Purpose::kStorage || mem->payload.empty()) {
        return true;
      }
      Message reply;
      reply.src = net().peer_at(v);
      reply.dst = m.src;
      reply.type = MsgType::kFetchReply;
      reply.words.reserve(6 + mem->members.size());
      reply.words = {item,
                     m.words[1],
                     mem->piece_index,
                     mem->ida_k,
                     mem->original_size,
                     mem->members.size()};
      reply.words.insert(reply.words.end(), mem->members.begin(),
                         mem->members.end());
      reply.set_blob(mem->payload);
      ctx.send(v, std::move(reply));
      return true;
    }
    case MsgType::kFetchReply: {
      const auto it = searches_.find(m.words[1]);
      if (it == searches_.end() || it->second.status.finished) return true;
      Search& s = it->second;
      SearchStatus& status = s.status;
      if (status.fetched >= 0) return true;

      const auto piece_index = static_cast<std::uint32_t>(m.words[2]);
      const ItemRecord* rec = store_.record(status.item);
      if (piece_index == kNoPiece) {
        status.fetched = net().round();
        status.fetch_ok =
            rec && content_hash(m.blob().data(), m.blob().size()) == rec->hash;
        // shardcheck:ok(R6: fetched item payload copy: O(item bytes) per completed fetch)
        status.fetched_data.assign(m.blob().begin(), m.blob().end());
        return true;
      }
      // Erasure mode: gather distinct pieces; holders list in the reply
      // extends the fetch candidates.
      add_holders(s, {m.words.data() + kReplyMembersAt, m.words[5]});
      if (std::none_of(s.pieces.begin(), s.pieces.end(),
                       [piece_index](const IdaPiece& p) {
                         return p.index == piece_index;
                       })) {
        // shardcheck:ok(R6: gathered erasure pieces: O(ida_k x piece bytes) per active fetch)
        s.pieces.push_back(
            IdaPiece{piece_index, {m.blob().begin(), m.blob().end()}});
      }
      const auto ida_k = static_cast<std::uint32_t>(m.words[3]);
      const auto original_size = static_cast<std::size_t>(m.words[4]);
      if (ida_k > 0 && s.pieces.size() >= ida_k) {
        const ErasurePolicy policy(config_.ida_surplus);
        const auto data = policy.reconstruct(s.pieces, ida_k, original_size);
        if (data) {
          status.fetched = net().round();
          status.fetch_ok = rec && content_hash(*data) == rec->hash;
          status.fetched_data = *data;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace churnstore
